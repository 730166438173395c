"""The benchmark's workloads: their inputs, their rounds of operations and their checks.

A round is a fixed list of operations, so every run attempts whole rounds and
the share of failed operations is the same in every run. Inputs come from
the run's seed, except where the ablation pins seed 0 (ABLATE_SEED).
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field

import numpy as np

from actf import branch as B
from actf import data as D
from actf import model as M
from actf import tensor as T
from actf import train as TR

import checks

# The `actf train` defaults: 8x3x24x24 video, C_out 64, d 256, batch 16,
# 40 + 25 videos per class, lr 0.05 with momentum 0.9. A round trains fresh
# weights for one epoch (the defaults run 5), so a 20-second run holds
# several rounds.
DEFAULT_DIMS = dict(frames=8, height=24, width=24, conv1_channels=8,
                    out_channels=64, sketch_dim=256, n_classes=4)
# Criterion-4 scale: 28x28 frames pool to 7x7 features with C_out 768, d 3840.
PAPER_DIMS = dict(frames=8, height=28, width=28, conv1_channels=8,
                  out_channels=768, sketch_dim=3840, n_classes=4)
TASK = dict(kind="direction4", height=24, width=24, noise=0.02)
TRAIN_PER_CLASS, EVAL_PER_CLASS = 40, 25
TRAIN_CFG = dict(lr0=0.05, momentum=0.9, weight_decay=0.0001, decay_factor=0.1,
                 decay_epochs=(3,), epochs=1, batch_size=16)
# The ablation trains every variant on the seed-0 data with seed-0 weights:
# `no-attn` diverges to a NaN loss within the epoch there.
ABLATE_SEED = 0
# Branch calls per round on random non-negative feature maps.
BRANCH_CALLS = {"default": 16, "paper": 4}


@dataclass
class Tally:
    """What the rounds of one run measured.

    Every timed segment is bracketed by speed-probe readings; `*_ref` fields
    hold its time divided by the segment's slowdown (see probe.py).
    """

    train_samples: int = 0
    train_s: float = 0.0
    train_ref_s: float = 0.0
    eval_samples: int = 0
    eval_s: float = 0.0
    eval_ref_s: float = 0.0
    fwd_ms: list = field(default_factory=list)
    fwd_ref_ms: list = field(default_factory=list)
    fwdbwd_ms: list = field(default_factory=list)
    fwdbwd_ref_ms: list = field(default_factory=list)
    accuracies: list = field(default_factory=list)   # held-out accuracy of `full`
    attempted: int = 0
    failed: int = 0
    failed_ops: list = field(default_factory=list)
    items: int = 0    # videos through fit or evaluate; on branch-paper, branch calls
    taped: int = 0    # videos or feature maps swept back under a Tape
    # Context for work that per-layer spans leave out: the model workloads'
    # branch bursts. A traced run sets it to `Tracer.paused`.
    untraced: object = contextlib.nullcontext

    def add_train(self, samples, seconds, slowdown):
        self.train_samples += samples
        self.train_s += seconds
        self.train_ref_s += seconds / slowdown

    def add_eval(self, samples, seconds, slowdown):
        self.eval_samples += samples
        self.eval_s += seconds
        self.eval_ref_s += seconds / slowdown


def _task(per_class, seed):
    return D.SyntheticTask(per_class=per_class, seed=seed, **TASK)


@dataclass
class BranchCase:
    """Branch parameters plus seeded non-negative feature maps and a loss direction."""

    params: M.ModelParams
    feats: list
    direction: np.ndarray

    @classmethod
    def make(cls, params, dims: M.ModelDims, calls, seed):
        rng = np.random.default_rng([seed, 17])
        h, w = dims.feature_spatial
        shape = (dims.frames, dims.out_channels, h, w)
        feats = [rng.random(shape) * 0.1 for _ in range(calls)]
        return cls(params, feats, rng.standard_normal((dims.out_channels, 1)))

    def forward(self, f):
        return B.extract_actf(B.LowLevelFeature(T.Tensor(f)), self.params.actf)

    def forward_backward(self, f, imf_weight_zero=False):
        """Tape the branch and sweep back from the scalar <v, direction>."""
        F = T.Tensor(f, requires_grad=True)
        with T.Tape() as tape:
            v = B.extract_actf(B.LowLevelFeature(F), self.params.actf,
                               imf_weight_zero=imf_weight_zero)
            out = T.reshape(T.matmul(T.reshape(v, (1, v.data.shape[0])),
                                     T.Tensor(self.direction)), ())
            tape.backward(out)
        return F

    def clear_grads(self):
        for _, t in M.named_tensors(self.params):
            t.grad = None

    def _burst(self, call, probe):
        """Time `call` on every feature map, between two probe marks."""
        probe.mark()
        times = []
        for f in self.feats:
            t0 = time.perf_counter()
            call(f)
            times.append((time.perf_counter() - t0) * 1e3)
            self.clear_grads()
        slowdown = probe.mark()
        return times, [t / slowdown for t in times]

    def run(self, tally: Tally, probe):
        times, ref = self._burst(self.forward, probe)
        tally.fwd_ms += times
        tally.fwd_ref_ms += ref
        times, ref = self._burst(self.forward_backward, probe)
        tally.fwdbwd_ms += times
        tally.fwdbwd_ref_ms += ref
        tally.attempted += 2 * len(self.feats)


def train_and_evaluate(dims, seed, variant, train_set, eval_set, cfg, tally: Tally, probe):
    """One model operation: fresh weights, `fit`, then `evaluate`.

    The operation fails when training ends with a non-finite loss.
    """
    params = M.init_params(dims, seed, variant)
    probe.mark()
    with np.errstate(all="ignore"):
        t0 = time.perf_counter()
        report = TR.fit(params, train_set, cfg)
        t1 = time.perf_counter()
        tally.add_train(len(train_set) * cfg.epochs, t1 - t0, probe.mark())
        t0 = time.perf_counter()
        acc = TR.evaluate(params, eval_set)
        t1 = time.perf_counter()
        tally.add_eval(len(eval_set), t1 - t0, probe.mark())
    tally.items += len(train_set) * cfg.epochs + len(eval_set)
    tally.taped += len(train_set) * cfg.epochs
    tally.attempted += 1
    ok = all(np.isfinite(r.loss) for r in report.epochs)
    if not ok:
        tally.failed += 1
        tally.failed_ops.append(f"{variant}: non-finite training loss")
    elif variant == "full":
        tally.accuracies.append(acc)
    return params, acc, ok


class Workload:
    """`setup` makes only program calls, and is timed as `setup_s`;
    `make_feature_maps` then draws the branch calls' random inputs."""

    branch_calls = BRANCH_CALLS["default"]

    def make_feature_maps(self):
        self.branch = BranchCase.make(self.branch_params, self.dims, self.branch_calls,
                                      self.seed)


class TrainDefault(Workload):
    name = "train-default"

    def __init__(self, seed):
        self.seed = seed
        self.dims = M.ModelDims(**DEFAULT_DIMS)
        self.cfg = TR.TrainConfig(seed=seed, **TRAIN_CFG)

    def setup(self):
        self.train_set = D.generate(_task(TRAIN_PER_CLASS, self.seed))
        self.eval_set = D.generate(_task(EVAL_PER_CLASS, self.seed + 1))
        self.branch_params = M.init_params(self.dims, self.seed, "full")

    def round(self, tally: Tally, probe):
        self.trained = train_and_evaluate(self.dims, self.seed, "full", self.train_set,
                                          self.eval_set, self.cfg, tally, probe)
        with tally.untraced():
            self.branch.run(tally, probe)

    def check(self):
        params, acc, _ = self.trained
        yield from checks.model_outputs(params, "full", self.eval_set, acc)
        yield from checks.first_step(self.dims, self.seed, "full", self.train_set[:2])
        yield from checks.branch_outputs(self.branch)
        yield from checks.branch_gradient(self.branch)


class AblateDefault(Workload):
    name = "ablate-default"

    def __init__(self, seed):
        self.seed = seed
        self.dims = M.ModelDims(**DEFAULT_DIMS)
        self.cfg = TR.TrainConfig(seed=ABLATE_SEED, **TRAIN_CFG)

    def setup(self):
        self.train_set = D.generate(_task(TRAIN_PER_CLASS, ABLATE_SEED))
        self.eval_set = D.generate(_task(EVAL_PER_CLASS, self.seed + 1))
        self.branch_params = M.init_params(self.dims, ABLATE_SEED, "full")

    def round(self, tally: Tally, probe):
        # Branch bursts after every variant spread the short branch calls
        # over the whole round.
        self.trained = {}
        for v in M.VARIANTS:
            self.trained[v] = train_and_evaluate(self.dims, ABLATE_SEED, v, self.train_set,
                                                 self.eval_set, self.cfg, tally, probe)
            with tally.untraced():
                self.branch.run(tally, probe)

    def check(self):
        sample = self.eval_set[:8]
        for v in M.VARIANTS:
            yield from checks.model_outputs(M.init_params(self.dims, ABLATE_SEED, v), v, sample)
            params, acc, ok = self.trained[v]
            if ok:
                yield from checks.model_outputs(params, v, self.eval_set, acc)
            yield from checks.first_step(self.dims, ABLATE_SEED, v, self.train_set[:2])
        params, _, _ = self.trained["spatial-only"]
        yield from checks.time_reversal(params, self.eval_set)


class BranchPaper(Workload):
    name = "branch-paper"
    branch_calls = BRANCH_CALLS["paper"]

    def __init__(self, seed):
        self.seed = seed
        self.dims = M.ModelDims(**PAPER_DIMS)

    def setup(self):
        self.branch_params = M.init_params(self.dims, self.seed, "full")

    def round(self, tally: Tally, probe):
        # Here a sample is one video's feature map through the branch:
        # forward + backward counts as training, forward alone as evaluation.
        n = len(self.branch.feats)
        self.branch.run(tally, probe)
        tally.items += 2 * n
        tally.taped += n
        tally.add_eval(n, sum(tally.fwd_ms[-n:]) / 1e3,
                       sum(tally.fwd_ms[-n:]) / sum(tally.fwd_ref_ms[-n:]))
        tally.add_train(n, sum(tally.fwdbwd_ms[-n:]) / 1e3,
                        sum(tally.fwdbwd_ms[-n:]) / sum(tally.fwdbwd_ref_ms[-n:]))

    def check(self):
        yield from checks.branch_outputs(self.branch)
        yield from checks.branch_gradient(self.branch)
        yield from checks.sketch_brute_force(self.branch, self.seed)


WORKLOADS = {w.name: w for w in (TrainDefault, AblateDefault, BranchPaper)}
