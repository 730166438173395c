"""Optimizer, learning-rate schedule, and training-loop tests."""

import ctypes
import dataclasses
import json
import resource
import tracemalloc

import numpy as np
import pytest

from actf import cli
from actf import model as M
from actf import train as TR
from actf import data as D
from actf.errors import ConfigError
from actf import tensor as T
from actf.tensor import Tensor


def tiny_dims():
    return M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                       out_channels=8, sketch_dim=32, n_classes=4)


def traced_peak(fn) -> int:
    """Peak bytes of the allocations made while fn runs; tracemalloc also
    counts numpy's array buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStepMemory:
    """A step stacks one minibatch or chunk, never the whole dataset, so its
    peak does not grow with the dataset: ten times the samples add less than
    one minibatch of videos, 0.84 MiB of float32. Stacking the whole dataset
    would add its other 144 videos, 7.6 MiB, before the first layer widened them.

    Each batch runs as one shard: a sharded step's traced peak also follows
    how its shard threads happen to interleave. The optimizer updates the
    weights in place, so a fit on 160 adds almost nothing to one on 16."""

    DIMS = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                       out_channels=64, sketch_dim=256, n_classes=4)
    BATCH = 16   # the minibatch, and TR.EVAL_CHUNK

    @pytest.fixture(scope="class")
    def dataset(self):
        return D.generate(D.SyntheticTask(kind="direction4", per_class=40, height=24,
                                          width=24, noise=0.02, seed=1))

    @pytest.fixture
    def shard_counts(self, monkeypatch):
        """Make a batch of BATCH videos one shard; the shard count of each forward."""
        monkeypatch.setattr(M, "WORK_PER_SHARD",
                            self.BATCH * M.video_work(self.DIMS, self.DIMS.frames) + 1)
        shards, run = [], T.batch_parallel

        def counted(fn, x, leaves, n):
            shards.append(n)
            return run(fn, x, leaves, n)

        monkeypatch.setattr(T, "batch_parallel", counted)
        return shards

    def batch_bytes(self, dataset):
        """One stacked minibatch, at the samples' own dtype."""
        return self.BATCH * dataset[0][0].data.nbytes

    def test_fit_peak_independent_of_dataset_size(self, dataset, shard_counts):
        cfg = TR.TrainConfig(epochs=1, batch_size=self.BATCH, seed=0)
        peaks = []
        for n in (16, 160):
            p = M.init_params(self.DIMS, 0, "full")
            peaks.append(traced_peak(lambda: TR.fit(p, dataset[:n], cfg)))
        assert set(shard_counts) == {1}
        assert peaks[1] - peaks[0] < self.batch_bytes(dataset), peaks

    def test_evaluate_peak_independent_of_dataset_size(self, dataset, shard_counts):
        p = M.init_params(self.DIMS, 0, "full")
        small, large = (traced_peak(lambda: TR.evaluate(p, dataset[:n])) for n in (16, 160))
        assert set(shard_counts) == {1}
        assert large - small < self.batch_bytes(dataset), (small, large)


class TestSchedule:
    def test_constant_without_decay(self):
        cfg = TR.TrainConfig(lr0=0.005, decay_epochs=())
        assert [TR.lr_at(e, cfg) for e in range(4)] == [0.005] * 4

    def test_step_decay(self):
        cfg = TR.TrainConfig(lr0=0.005, decay_factor=0.1, decay_epochs=(2,))
        lrs = [TR.lr_at(e, cfg) for e in range(3)]
        np.testing.assert_allclose(lrs, [0.005, 0.005, 0.0005])

    def test_repeated_decay(self):
        cfg = TR.TrainConfig(lr0=1.0, decay_factor=0.5,
                             decay_epochs=(1, 3))
        lrs = [TR.lr_at(e, cfg) for e in range(4)]
        np.testing.assert_allclose(lrs, [1.0, 0.5, 0.5, 0.25])


class TestTrainConfig:
    @pytest.mark.parametrize("field, value", [
        ("lr0", float("nan")),
        ("momentum", -1.0), ("momentum", 1.0), ("momentum", 1.5), ("momentum", float("nan")),
        ("weight_decay", -0.5), ("weight_decay", float("nan")),
        ("decay_epochs", (-1,)), ("decay_epochs", (3, -2)),
    ])
    def test_refuses_bad_optimizer_setting(self, field, value):
        with pytest.raises(ConfigError, match=field):
            TR.TrainConfig(**{field: value})

    def test_accepts_range_edges(self):
        cfg = TR.TrainConfig(momentum=0.0, weight_decay=0.0, decay_epochs=(0,))
        assert TR.lr_at(0, cfg) == pytest.approx(cfg.lr0 * cfg.decay_factor)


class TestOptimizer:
    def test_zero_grad_no_motion(self):
        p = M.init_params(tiny_dims(), 0, "full")
        before = {n: t.data.copy() for n, t in M.named_tensors(p)}
        for _, t, _ in M.trainable_parameters(p):
            t.grad = np.zeros_like(t.data)
        cfg = TR.TrainConfig(weight_decay=0.0)
        TR.SgdOptimizer(M.trainable_parameters(p), cfg).step(0.1)
        for n, t in M.named_tensors(p):
            np.testing.assert_array_equal(t.data, before[n])

    def test_quadratic_single_step(self):
        # loss th^2/2, grad th: th1 = th0 - lr*th0 = 0.9
        theta = Tensor(np.array(1.0), requires_grad=True)
        cfg = TR.TrainConfig(momentum=0.0, weight_decay=0.0)
        opt = TR.SgdOptimizer([("theta", theta, False)], cfg)
        theta.grad = theta.data.copy()
        opt.step(0.1)
        assert float(theta.data) == pytest.approx(0.9, abs=1e-15)

    def test_quadratic_momentum_recurrence(self):
        theta = Tensor(np.array(1.0), requires_grad=True)
        cfg = TR.TrainConfig(momentum=0.9, weight_decay=0.0)
        opt = TR.SgdOptimizer([("theta", theta, False)], cfg)
        ref_theta, ref_v = 1.0, 0.0
        for _ in range(20):
            theta.grad = theta.data.copy()
            opt.step(0.1)
            ref_v = 0.9 * ref_v + ref_theta
            ref_theta = ref_theta - 0.1 * ref_v
            assert float(theta.data) == pytest.approx(ref_theta, abs=1e-12)

    def test_weight_decay_only_on_flagged(self):
        a = Tensor(np.array(2.0), requires_grad=True)
        b = Tensor(np.array(2.0), requires_grad=True)
        cfg = TR.TrainConfig(momentum=0.0, weight_decay=0.01)
        opt = TR.SgdOptimizer([("a", a, True), ("b", b, False)], cfg)
        a.grad = np.array(0.0)
        b.grad = np.array(0.0)
        opt.step(1.0)
        assert float(a.data) == pytest.approx(2.0 - 0.01 * 2.0, abs=1e-15)
        assert float(b.data) == 2.0

    def test_steps_in_place_with_the_same_float_ops(self, monkeypatch):
        # every parameter array is updated where it lies, to the bits that a
        # step which allocates each new value gives
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=3,
                                        height=24, width=24, seed=2))
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=3,
                           out_channels=8, sketch_dim=32, n_classes=4)
        cfg = TR.TrainConfig(lr0=0.05, epochs=2, batch_size=4, seed=0)
        p = M.init_params(dims, 0, "full")
        arrays = {n: t.data for n, t in M.named_tensors(p)}
        TR.fit(p, ds, cfg)
        assert all(t.data is arrays[n] for n, t in M.named_tensors(p))

        def allocating_step(self, lr):
            for name, t, decay in self.parameters:
                g = t.grad + self.cfg.weight_decay * t.data if decay else t.grad
                v = self.velocity[name]
                v *= self.cfg.momentum
                v += g
                t.data = np.asarray(t.data - lr * v)
                t.grad = None

        monkeypatch.setattr(TR.SgdOptimizer, "step", allocating_step)
        q = M.init_params(dims, 0, "full")
        TR.fit(q, ds, cfg)
        for (name, a), (_, b) in zip(M.named_tensors(p), M.named_tensors(q)):
            assert a.data.tobytes() == b.data.tobytes(), name

    def test_missing_grad_names_parameter(self):
        p = M.init_params(tiny_dims(), 0, "full")
        opt = TR.SgdOptimizer(M.trainable_parameters(p), TR.TrainConfig())
        with pytest.raises(RuntimeError, match="SgdOptimizer.step.*backbone.w1"):
            opt.step(0.1)


class TestFit:
    def test_loss_decreases_on_direction_task(self):
        # each seed gets fresh data and weights; the loss must drop
        # monotonically over the first epochs on most seeds. Tiny dims are
        # too noisy for strict monotonicity, so this runs at the
        # experiment scale with a reduced sample budget.
        wins = 0
        for seed in range(5):
            ds = D.generate(D.SyntheticTask(kind="direction4",
                                            height=24, width=24,
                                            per_class=25, noise=0.02,
                                            seed=seed))
            dims = M.ModelDims(frames=8, height=24, width=24,
                               conv1_channels=8, out_channels=64,
                               sketch_dim=256, n_classes=4)
            p = M.init_params(dims, seed, "full")
            cfg = TR.TrainConfig(lr0=0.05, epochs=5, batch_size=16,
                                 seed=seed)
            rep = TR.fit(p, ds, cfg)
            losses = [r.loss for r in rep.epochs]
            if all(b < a for a, b in zip(losses, losses[1:])):
                wins += 1
        assert wins >= 4

    def test_report_shapes_and_lr(self):
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=2,
                                        height=24, width=24, seed=0))
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=3,
                           out_channels=8, sketch_dim=32, n_classes=4)
        p = M.init_params(dims, 0, "full")
        cfg = TR.TrainConfig(lr0=0.01, epochs=2, batch_size=4,
                             decay_epochs=(1,), seed=0)
        rep = TR.fit(p, ds, cfg)
        assert [r.epoch for r in rep.epochs] == [0, 1]
        np.testing.assert_allclose([r.lr for r in rep.epochs],
                                   [0.01, 0.001])

    @pytest.mark.parametrize("run", [
        lambda p: TR.fit(p, [], TR.TrainConfig(epochs=1)),
        lambda p: TR.evaluate(p, []),
    ], ids=["fit", "evaluate"])
    def test_refuses_empty_dataset(self, run):
        with pytest.raises(ConfigError, match="empty dataset"):
            run(M.init_params(tiny_dims(), 0, "full"))

    def test_evaluate_is_accuracy(self):
        dims = tiny_dims()
        p = M.init_params(dims, 0, "full")
        rng = np.random.default_rng(0)
        ds = [(Tensor(rng.standard_normal((4, 3, 16, 16))), rng.integers(4))
              for _ in range(8)]
        acc = TR.evaluate(p, ds)
        assert 0.0 <= acc <= 1.0
        assert acc * 8 == int(round(acc * 8))

    def test_one_forward_per_minibatch(self, monkeypatch):
        # fit runs each minibatch as one batched forward, and evaluate
        # runs chunks of at most EVAL_CHUNK videos, in sample order
        dims = tiny_dims()
        p = M.init_params(dims, 0, "full")
        rng = np.random.default_rng(1)
        ds = [(Tensor(rng.standard_normal((4, 3, 16, 16))), i % 4) for i in range(40)]
        sizes = []
        forward = M.forward
        monkeypatch.setattr(M, "forward",
                            lambda v, q: sizes.append(v.data.shape[0]) or forward(v, q))
        TR.fit(p, ds[:10], TR.TrainConfig(epochs=1, batch_size=4, seed=0))
        assert sizes == [4, 4, 2]
        sizes.clear()
        videos = np.stack([v.data for v, _ in ds])
        logits = TR.predict(p, ds)
        assert sizes == [16, 16, 8]
        np.testing.assert_allclose(logits[17], forward(Tensor(videos[17:18]), p).data[0],
                                   rtol=0, atol=1e-12)

    def test_fit_deterministic(self):
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=2,
                                        height=24, width=24, seed=1))
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=3,
                           out_channels=8, sketch_dim=32, n_classes=4)
        reports = []
        finals = []
        for _ in range(2):
            p = M.init_params(dims, 1, "full")
            cfg = TR.TrainConfig(lr0=0.02, epochs=2, batch_size=4, seed=1)
            rep = TR.fit(p, ds, cfg)
            reports.append(repr(rep.epochs))
            finals.append(np.concatenate(
                [t.data.ravel() for _, t in M.named_tensors(p)]))
        assert reports[0] == reports[1]
        np.testing.assert_array_equal(finals[0], finals[1])

    def test_records_first_nonfinite_batch(self):
        # a diverging run is recorded, not raised, and trains on; a finite
        # run records nothing
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=2,
                                        height=16, width=16, frames=4, seed=0))
        reports = {}
        for lr0 in (0.01, 1e6):
            p = M.init_params(tiny_dims(), 0, "no-attn")
            with np.errstate(all="ignore"):
                reports[lr0] = TR.fit(p, ds, TR.TrainConfig(lr0=lr0, epochs=2, batch_size=4))
        assert reports[0.01].nonfinite_at is None
        assert reports[0.01].nonfinite_tensor is None
        rep = reports[1e6]
        assert rep.nonfinite_at == (1, 1) and rep.nonfinite_tensor == "backbone.w1"
        assert len(rep.epochs) == 2 and np.isnan(rep.epochs[1].loss)

    @pytest.mark.skipif(not hasattr(ctypes.CDLL(None), "mallopt"),
                        reason="the C library has no mallopt")
    def test_steady_state_step_does_not_fault(self):
        # tensor.py pins the allocator's thresholds, so once one fit has
        # warmed the heap, another fit and evaluate reuse its memory
        # instead of faulting pages in again (about 8k faults without)
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=8,
                                        height=24, width=24, seed=0))
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                           out_channels=64, sketch_dim=256, n_classes=4)
        cfg = TR.TrainConfig(lr0=0.05, epochs=1, batch_size=16, seed=0)
        TR.fit(M.init_params(dims, 0, "full"), ds, cfg)
        p = M.init_params(dims, 1, "full")
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        TR.fit(p, ds, cfg)
        TR.evaluate(p, ds)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults < 1000, faults

    def test_tsv_has_header(self, tmp_path):
        # a zero-epoch run still writes the epoch table's column header
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "frames": 4, "height": 16, "width": 16, "train_per_class": 1,
            "eval_per_class": 1, "conv1_channels": 3, "out_channels": 8,
            "sketch_dim": 32, "epochs": 0, "seed": 0}))
        out = tmp_path / "out"
        assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 0
        lines = (out / "train_report.tsv").read_text().splitlines()
        assert lines[2].split("\t") == [
            f.name for f in dataclasses.fields(TR.EpochRecord)]
        assert "epoch" in lines[2] and "\t" in lines[2]
        assert len(lines) == 3
