"""Attentive weighting tests: temporal softmax and scalar pair fusion."""

import numpy as np
import pytest

from actf import attention as A
from actf import tensor as T
from actf.check import gradient_error
from actf.errors import ShapeError


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def _pairs(rng, n, c, h, w):
    """One video's n pair features, batch-first: (1, n, c, h, w)."""
    return t(rng.standard_normal((1, n, c, h, w)))


class TestTemporalWeights:
    def test_identical_pairs_uniform(self):
        rng = np.random.default_rng(0)
        attn = A.init_temporal_attention(4, rng)
        p = rng.standard_normal((4, 3, 3))
        alpha = A.temporal_weights(t(np.stack([p, p, p])[None]), attn).data
        np.testing.assert_allclose(alpha, np.full((1, 3), 1.0 / 3), atol=1e-12)

    def test_zero_projection_uniform(self):
        rng = np.random.default_rng(1)
        proj = t(np.zeros((5, 1)), grad=True)
        alpha = A.temporal_weights(_pairs(rng, 4, 5, 2, 2), proj).data
        np.testing.assert_allclose(alpha, 0.25, atol=1e-12)

    def test_manual_composition(self):
        # hand-evaluate pool -> project -> sigmoid -> softmax for two pairs
        rng = np.random.default_rng(2)
        c, h, w = 3, 2, 2
        proj = A.init_temporal_attention(c, rng)
        assert proj.data.shape == (c, 1)
        pairs = _pairs(rng, 2, c, h, w)
        alpha = A.temporal_weights(pairs, proj).data

        logits = []
        for p in pairs.data[0]:
            pooled = p.mean(axis=(1, 2))
            raw = float(pooled @ proj.data[:, 0])
            logits.append(1.0 / (1.0 + np.exp(-raw)))
        logits = np.array(logits)
        expect = np.exp(logits) / np.exp(logits).sum()
        np.testing.assert_allclose(alpha[0], expect, atol=1e-10)

    def test_sums_to_one(self):
        rng = np.random.default_rng(3)
        attn = A.init_temporal_attention(6, rng)
        alpha = A.temporal_weights(_pairs(rng, 7, 6, 3, 3), attn).data
        assert abs(alpha.sum() - 1.0) < 1e-12

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        attn = A.init_temporal_attention(4, rng)
        pairs = _pairs(rng, 5, 4, 2, 2)
        alpha = A.temporal_weights(pairs, attn).data
        perm = [3, 0, 4, 1, 2]
        alpha_p = A.temporal_weights(t(pairs.data[:, perm]), attn).data
        np.testing.assert_allclose(alpha_p, alpha[:, perm], atol=1e-12)

    def test_maps_pool_to_features(self):
        # each video's maps are averaged over space, then projected, squashed
        # and normalized across its own pairs only
        rng = np.random.default_rng(6)
        attn = A.init_temporal_attention(4, rng)
        maps = rng.standard_normal((2, 3, 4, 2, 5))
        alpha = A.temporal_weights(t(maps), attn).data
        assert alpha.shape == (2, 3)
        for v in range(2):
            raw = np.array([maps[v, k].mean(axis=(1, 2)) @ attn.data[:, 0] for k in range(3)])
            s = 1.0 / (1.0 + np.exp(-raw))
            np.testing.assert_allclose(alpha[v], np.exp(s) / np.exp(s).sum(), atol=1e-12)

    def test_bad_shapes(self):
        # pooled (B, t-1, C) features are refused: only maps are taken
        attn = A.init_temporal_attention(4, np.random.default_rng(7))
        for shape in ((2, 3, 4), (3, 4), (2, 3, 4, 2), (2, 3, 5, 2, 2)):
            with pytest.raises(ShapeError):
                A.temporal_weights(t(np.zeros(shape)), attn)

    def test_gradient_flow(self):
        rng = np.random.default_rng(5)
        proj = t(rng.standard_normal((3, 1)), grad=True)
        pairs = _pairs(rng, 3, 3, 2, 2)
        assert gradient_error(lambda: A.temporal_weights(pairs, proj), [proj]) < 1e-4


class TestPairFusion:
    def test_neutral_split(self):
        w = A.init_pair_fusion()
        wa, wb = A.effective_weights(w)
        assert wa.data == pytest.approx(0.5, abs=1e-15)
        assert wb.data == pytest.approx(0.5, abs=1e-15)

    def test_equal_raw_equal_split(self):
        w = A.PairFusionWeights(t(1.7, grad=True), t(1.7, grad=True))
        wa, wb = A.effective_weights(w)
        assert wa.data == pytest.approx(0.5, abs=1e-15)
        assert wb.data == pytest.approx(0.5, abs=1e-15)

    def test_saturated_raw(self):
        # softmax over sigmoid outputs: logits live in (0, 1), so even
        # raw inputs of +-8 only reach softmax(0.99966, 0.00034)
        w = A.PairFusionWeights(t(8.0), t(-8.0))
        wa, wb = A.effective_weights(w)
        sa = 1.0 / (1.0 + np.exp(-8.0))
        sb = 1.0 / (1.0 + np.exp(8.0))
        expect_a = np.exp(sa) / (np.exp(sa) + np.exp(sb))
        assert wa.data == pytest.approx(expect_a, abs=1e-12)
        assert wb.data == pytest.approx(1.0 - expect_a, abs=1e-12)
        assert wa.data == pytest.approx(0.73093, abs=5e-5)
        assert wb.data == pytest.approx(0.26907, abs=5e-5)

    def test_weight_bounds(self):
        # sigmoid squashing bounds each softmax logit to (0, 1), so each
        # weight stays inside (1/(1+e), e/(1+e))
        lo = 1.0 / (1.0 + np.e)
        hi = np.e / (1.0 + np.e)
        for raw in (-100.0, -2.0, 0.0, 3.0, 100.0):
            w = A.PairFusionWeights(t(raw), t(-raw))
            wa, wb = A.effective_weights(w)
            assert lo - 1e-12 <= wa.data <= hi + 1e-12
            assert lo - 1e-12 <= wb.data <= hi + 1e-12

    def test_sums_to_one(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            w = A.PairFusionWeights(t(rng.standard_normal()),
                                    t(rng.standard_normal()))
            wa, wb = A.effective_weights(w)
            assert abs(float(wa.data) + float(wb.data) - 1.0) < 1e-12

    def test_fuse_channel_count(self):
        rng = np.random.default_rng(7)
        a = t(rng.standard_normal((7, 3840, 7, 7)))
        b = t(rng.standard_normal((7, 768, 7, 7)))
        out = A.fuse_pair(a, b, A.init_pair_fusion())
        assert out.data.shape == (7, 4608, 7, 7)

    def test_fuse_scales_blocks(self):
        rng = np.random.default_rng(8)
        a = t(rng.standard_normal((2, 3, 2, 2)))
        b = t(rng.standard_normal((2, 4, 2, 2)))
        w = A.PairFusionWeights(t(0.9), t(-0.4))
        wa, wb = A.effective_weights(w)
        out = A.fuse_pair(a, b, w).data
        np.testing.assert_allclose(out[:, :3], float(wa.data) * a.data,
                                   atol=1e-12)
        np.testing.assert_allclose(out[:, 3:], float(wb.data) * b.data,
                                   atol=1e-12)

    @pytest.mark.parametrize("raw", [(0.3, -1.1), (-1.3, 2.1), (-2.5, 0.8)])
    def test_one_squash(self, raw):
        # the split is attention_weights of the row [[raw_a, raw_b]], bit for
        # bit, and fuse_pair's raw-scalar gradients are that row's gradient for
        # the cotangent (sum g_a a, sum g_b b), as 0-d arrays
        rng = np.random.default_rng(10)
        w = A.PairFusionWeights(t(raw[0], grad=True), t(raw[1], grad=True))
        row = t([raw], grad=True)
        a, b = t(rng.standard_normal((2, 3))), t(rng.standard_normal((2, 4)))
        g = rng.standard_normal((2, 7))
        with T.Tape() as tape:
            tape.backward(A.fuse_pair(a, b, w), g)
        with T.Tape() as tape:
            alpha = A.attention_weights(row)
            tape.backward(alpha, np.array([[np.sum(g[:, :3] * a.data), np.sum(g[:, 3:] * b.data)]]))
        wa, wb = A.effective_weights(w)
        np.testing.assert_array_equal(np.array([wa.data, wb.data]), alpha.data[0])
        for raw_x in (w.raw_a, w.raw_b):
            assert type(raw_x.grad) is np.ndarray and raw_x.grad.shape == ()
        np.testing.assert_array_equal(np.array([w.raw_a.grad, w.raw_b.grad]), row.grad[0])

    def test_gradient_flow(self):
        rng = np.random.default_rng(9)
        ra = t(0.3, grad=True)
        rb = t(-0.2, grad=True)
        w = A.PairFusionWeights(ra, rb)
        a = t(rng.standard_normal((1, 2, 2, 2)))
        b = t(rng.standard_normal((1, 2, 2, 2)))
        assert gradient_error(lambda: A.fuse_pair(a, b, w), [ra, rb]) < 1e-4
