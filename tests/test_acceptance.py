"""Acceptance suite: seven property-based criteria, one pass/fail line each.

These are the binding checks for the package. Each test prints a single
`acceptance N <name>: PASS` (or FAIL) line with its pinned tolerances in the
assertions. The experiment in criterion 5 is the expensive one; everything
else is seconds.
"""

import json
import os
import time

import numpy as np
import pytest

from actf import attention as A
from actf import branch as B
from actf import cli
from actf import data as D
from actf import model as M
from actf import train as TR
from actf.tensor import Tensor


def _report(num, name, body, capsys):
    # Bypass pytest's capture so the verdict line always reaches the terminal.
    try:
        body()
    except BaseException:
        with capsys.disabled():
            print(f"acceptance {num} {name}: FAIL")
        raise
    with capsys.disabled():
        print(f"acceptance {num} {name}: PASS")


def _rank_sum_z(a, b):
    """Normal-approximation z statistic for the Wilcoxon rank-sum test."""
    n, m = len(a), len(b)
    ranks = np.argsort(np.argsort(np.concatenate([a, b]))) + 1.0
    ra = ranks[:n].sum()
    mean = n * (n + m + 1) / 2.0
    sd = np.sqrt(n * m * (n + m + 1) / 12.0)
    return (ra - mean) / sd


def test_criterion_1_sketch_fidelity(capsys):
    def body():
        start = time.monotonic()
        errs = cli.sketch_errors(c=64, d=2048, trials=100, seed=0)
        assert np.median(errs) < 0.15
        lo = cli.sketch_errors(c=64, d=256, trials=100, seed=1)
        hi = cli.sketch_errors(c=64, d=4096, trials=100, seed=2)
        assert np.median(hi) < np.median(lo)
        # rank-sum z far in the left tail: d=4096 errors are
        # statistically below d=256 errors
        assert _rank_sum_z(hi, lo) < -3.0
        assert time.monotonic() - start < 30.0

    _report(1, "sketch-fidelity", body, capsys)


def test_criterion_2_gradient_audit(capsys):
    def body():
        start = time.monotonic()
        assert cli.main(["gradcheck", "--out", ""]) == 0
        assert time.monotonic() - start < 60.0

    _report(2, "gradient-audit", body, capsys)


def test_criterion_3_normalization_invariants(capsys):
    def body():
        rng = np.random.default_rng(0)
        for _ in range(1000):
            feat = int(rng.integers(1, 6))
            npairs = int(rng.integers(1, 5))
            bound = np.sqrt(3.0 / feat)
            attn = Tensor(rng.uniform(-bound, bound, size=(feat, 1)))
            pairs = Tensor(rng.standard_normal((1, npairs, feat, 2, 2)))
            alpha = A.temporal_weights(pairs, attn).data
            assert abs(alpha.sum() - 1.0) < 1e-12
            for _site in range(2):
                w = A.PairFusionWeights(Tensor(rng.standard_normal() * 3),
                                        Tensor(rng.standard_normal() * 3))
                wa, wb = A.effective_weights(w)
                assert abs(float(wa.data) + float(wb.data) - 1.0) < 1e-12

    _report(3, "normalization-invariants", body, capsys)


def test_criterion_4_shape_reproduction(capsys):
    def body():
        start = time.monotonic()
        c_out, d = 768, 3840
        rng = np.random.default_rng(0)
        params = M.init_params(M.ModelDims(frames=8, height=28, width=28, conv1_channels=1,
                                           out_channels=c_out, sketch_dim=d, n_classes=1), 0).actf
        F = B.LowLevelFeature(
            Tensor(rng.standard_normal((8, c_out, 7, 7)) * 0.1))
        iccf = B.extract_iccf(F, params.plan, params.attn)
        assert iccf.data.shape == (1, 7, 3840, 7, 7)
        imf = B.extract_imf(F)
        assert imf.data.shape == (1, 7, 768, 7, 7)
        h = A.fuse_pair(iccf, imf, params.pair_fusion)
        assert h.data.shape == (1, 7, 4608, 7, 7)
        v = B.extract_actf(F, params)
        assert v.data.shape == (768,)
        assert time.monotonic() - start < 60.0

    _report(4, "shape-reproduction", body, capsys)


def test_criterion_5_order_sensitivity(capsys):
    def body():
        start = time.monotonic()
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                           out_channels=64, sketch_dim=256, n_classes=4)
        acc = {}
        for variant in ("full", "no-attn", "spatial-only"):
            acc[variant] = []
            for seed in range(5):
                train_set = D.generate(D.SyntheticTask(
                    kind="direction4", height=24, width=24,
                    per_class=40, noise=0.02, seed=seed))
                eval_set = D.generate(D.SyntheticTask(
                    kind="direction4", height=24, width=24,
                    per_class=25, noise=0.02, seed=seed + 1))
                params = M.init_params(dims, seed, variant)
                cfg = TR.TrainConfig(lr0=0.05, epochs=5, decay_epochs=(3,),
                                     batch_size=16, seed=seed)
                TR.fit(params, train_set, cfg)
                acc[variant].append(TR.evaluate(params, eval_set))
        print("order-sensitivity accuracies:", {
            k: [round(a, 3) for a in v] for k, v in acc.items()})
        full_ok = sum(a >= 0.85 for a in acc["full"])
        spatial_ok = sum(a <= 0.35 for a in acc["spatial-only"])
        assert full_ok >= 4, acc["full"]
        assert spatial_ok >= 4, acc["spatial-only"]
        assert np.mean(acc["full"]) >= np.mean(acc["no-attn"])
        assert time.monotonic() - start < 900.0

    _report(5, "order-sensitivity", body, capsys)


def test_criterion_6_determinism(tmp_path, capsys):
    def body():
        cfg = {
            "task": "direction4", "frames": 4, "height": 16, "width": 16,
            "train_per_class": 2, "eval_per_class": 2, "noise": 0.01,
            "conv1_channels": 3, "out_channels": 8, "sketch_dim": 32,
            "epochs": 2, "batch_size": 4, "lr0": 0.05, "seed": 0,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        blobs = []
        for run in ("a", "b"):
            out = str(tmp_path / run)
            assert cli.main(["train", "--config", str(cfg_path),
                             "--out", out]) == 0
            blobs.append({
                name: open(os.path.join(out, name), "rb").read()
                for name in ("metrics.tsv", "train_report.tsv",
                             "checkpoint.ckpt")
            })
        assert blobs[0] == blobs[1]

    _report(6, "determinism", body, capsys)


def test_criterion_7_format_round_trip(capsys):
    def body():
        rng = np.random.default_rng(7)
        for _ in range(1000):
            rank = int(rng.integers(1, 5))
            shape = tuple(int(s) for s in rng.integers(1, 6, size=rank))
            x = Tensor(rng.standard_normal(shape)
                       .astype(np.float32).astype(np.float64))
            raw = D.tensor_to_bytes(x)
            y, _ = D.tensor_from_bytes(raw)
            np.testing.assert_array_equal(x.data, y.data)
            assert D.tensor_to_bytes(y) == raw

    _report(7, "format-round-trip", body, capsys)
