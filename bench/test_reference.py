"""Tests of the independent reference itself, on tiny shapes.

Every benchmark run calls `run_all()` before checking the program against
the reference; `python3 -m pytest bench/test_reference.py` runs them alone.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference as R  # noqa: E402


def _tables(c, d, rng):
    return (rng.integers(0, d, c), rng.integers(0, d, c),
            rng.choice([-1.0, 1.0], c), rng.choice([-1.0, 1.0], c))


def _tiny_weights(rng, c_in=3, c1=2, c=3, d=5, r1=4, r2=6, n_classes=3):
    u = lambda *shape: rng.uniform(-0.5, 0.5, shape)
    return {
        "backbone.w1": u(c1, c_in, 3, 3), "backbone.b1": u(c1),
        "backbone.w2": u(c, c1, 3, 3), "backbone.b2": u(c),
        "attn.proj": u(d, 1), "pair_fusion.raw_a": u(), "pair_fusion.raw_b": u(),
        "reduction.w1": u(d + c, r1), "reduction.b1": u(1, r1),
        "reduction.w2": u(r1, r2), "reduction.b2": u(1, r2),
        "reduction.w3": u(r2, c), "reduction.b3": u(1, c),
        "final_fusion.raw_a": u(), "final_fusion.raw_b": u(),
        "clf.w": u(2 * c, n_classes), "clf.b": u(n_classes),
    }


def test_count_sketch_matches_loop():
    rng = np.random.default_rng(0)
    c, d = 6, 4
    h, _, s, _ = _tables(c, d, rng)
    x = rng.standard_normal((3, c))
    expect = np.zeros((3, d))
    for n in range(3):
        for i in range(c):
            expect[n, h[i]] += s[i] * x[n, i]
    np.testing.assert_allclose(R.count_sketch(x, h, s, d), expect, rtol=0, atol=1e-14)


def test_circular_convolve_matches_direct_sum():
    rng = np.random.default_rng(1)
    a, b = rng.standard_normal((2, 7)), rng.standard_normal((2, 7))
    expect = np.array([[sum(a[n, j] * b[n, (k - j) % 7] for j in range(7)) for k in range(7)]
                       for n in range(2)])
    np.testing.assert_allclose(R.circular_convolve(a, b), expect, rtol=0, atol=1e-12)


def test_compact_bilinear_matches_brute_force():
    rng = np.random.default_rng(2)
    c, d = 5, 7
    tables = _tables(c, d, rng)
    x, y = rng.standard_normal(c), rng.standard_normal(c)
    np.testing.assert_allclose(R.compact_bilinear(x[None], y[None], tables, d)[0],
                               R.brute_force_sketch(x, y, tables, d), rtol=0, atol=1e-12)


def test_injective_sketch_is_the_outer_product():
    # With h1(i) = c*i, h2(j) = j, unit signs and d = c*c no two products
    # share a bucket, so the sketch is the flattened outer product.
    c = 4
    tables = (np.arange(c) * c, np.arange(c), np.ones(c), np.ones(c))
    rng = np.random.default_rng(3)
    x, y = rng.standard_normal(c), rng.standard_normal(c)
    np.testing.assert_allclose(R.brute_force_sketch(x, y, tables, c * c),
                               np.outer(x, y).ravel(), rtol=0, atol=1e-14)


def test_conv_same_matches_loops():
    rng = np.random.default_rng(4)
    x, w, b = rng.standard_normal((2, 2, 4, 5)), rng.standard_normal((3, 2, 3, 3)), rng.standard_normal(3)
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    expect = np.zeros((2, 3, 4, 5))
    for n in range(2):
        for o in range(3):
            for i in range(4):
                for j in range(5):
                    expect[n, o, i, j] = b[o] + np.sum(w[o] * xp[n, :, i:i + 3, j:j + 3])
    np.testing.assert_allclose(R.conv_same(x, w, b), expect, rtol=0, atol=1e-12)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(5)
    w = {"attn.proj": rng.standard_normal((5, 1))}
    alpha = R.temporal_alpha(w, rng.standard_normal((2, 3, 5, 2, 2)))
    np.testing.assert_allclose(alpha.sum(axis=1), 1.0, rtol=0, atol=1e-14)
    assert (alpha > 0).all()


def test_spatial_only_ignores_frame_order():
    rng = np.random.default_rng(6)
    w = _tiny_weights(rng)
    w["clf.w"] = w["clf.w"][:3]
    videos = rng.random((2, 4, 3, 8, 8))
    np.testing.assert_allclose(R.logits(w, None, videos, "spatial-only"),
                               R.logits(w, None, videos[:, ::-1], "spatial-only"),
                               rtol=0, atol=1e-13)


def test_loss_gradient_of_classifier_bias():
    # d(mean cross-entropy)/d(clf.b) = mean(softmax(z) - onehot(label)).
    rng = np.random.default_rng(7)
    w = _tiny_weights(rng)
    tables = _tables(3, 5, rng)
    videos, labels = rng.random((2, 3, 3, 8, 8)), np.array([0, 2])
    z = R.logits(w, tables, videos, "full")
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    p[np.arange(2), labels] -= 1.0
    u = rng.standard_normal(3)
    fd, = R.directional_derivatives(
        lambda b, relu: R.mean_loss({**w, "clf.b": b}, tables, videos, labels, "full", relu),
        w["clf.b"], [u], 1e-6)
    assert abs(fd - p.mean(axis=0) @ u) < 1e-8


def test_held_relu_pattern_ignores_a_nearby_kink():
    # relu(x) at x = 1e-9 with step 1e-6 crosses the kink: the plain central
    # difference reads about 1/2, the held one the slope 1 on the active side.
    plain = (R.relu(1e-9 + 1e-6) - R.relu(1e-9 - 1e-6)) / 2e-6
    held = R.directional_derivatives(lambda x, relu: relu(x), np.float64(1e-9), [1.0], 1e-6)
    assert abs(plain - 0.5) < 1e-2 and abs(held[0] - 1.0) < 1e-12
    assert R.directional_derivatives(lambda x, relu: relu(x), np.float64(-1e-9), [1.0],
                                     1e-6) == [0.0]


def test_variants_share_the_spatial_vector():
    # no-attn concatenates [branch, spatial]; its spatial half must match spatial-only.
    rng = np.random.default_rng(8)
    w = _tiny_weights(rng)
    tables = _tables(3, 5, rng)
    videos = rng.random((2, 3, 3, 8, 8))
    head = w["clf.w"].copy()
    w_sp = {**w, "clf.w": head[3:]}
    w_na = {**w, "clf.w": np.vstack([np.zeros((3, 3)), head[3:]])}
    np.testing.assert_allclose(R.logits(w_na, tables, videos, "no-attn"),
                               R.logits(w_sp, tables, videos, "spatial-only"),
                               rtol=0, atol=1e-13)


def run_all():
    """Yield (name, ok, detail) for every test in this file."""
    for name, fn in sorted(globals().items()):
        if name.startswith("test_") and callable(fn):
            try:
                fn()
            except AssertionError as e:
                yield f"reference-selftest[{name[5:]}]", False, str(e).strip()[:200]
            else:
                yield f"reference-selftest[{name[5:]}]", True, "passed"
