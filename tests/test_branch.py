"""Tests for the correlation branch: ICCF, IMF, and the reduced feature."""

import numpy as np
import pytest

from actf import branch as B
from actf import attention as A
from actf import sketch as S
from actf import tensor as T
from actf.check import gradient_error
from actf.errors import InputError, ShapeError


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def _params(c_out, d, seed=0, r1=None, r2=None):
    rng = np.random.default_rng(seed)
    c_cat = d + c_out
    r1 = r1 or max(1, c_cat // 2)
    r2 = r2 or 2 * c_out
    return B.ActfParams(
        plan=S.make_plan(c_out, d, seed),
        attn=A.init_temporal_attention(d, rng),
        pair_fusion=A.init_pair_fusion(),
        reduction=B.init_reduction(c_cat, r1, r2, c_out, rng),
    )


class TestLowLevelFeature:
    def test_requires_rank_four(self):
        # rank 4 is one video, rank 5 a batch; anything else is refused
        with pytest.raises(ShapeError):
            B.LowLevelFeature(t(np.zeros((4, 3, 5))))
        with pytest.raises(ShapeError):
            B.LowLevelFeature(t(np.zeros((1, 2, 4, 3, 5, 5))))

    def test_requires_two_frames(self):
        with pytest.raises(InputError):
            B.LowLevelFeature(t(np.zeros((1, 3, 5, 5))))

    def test_properties(self):
        for shape in ((8, 16, 7, 7), (3, 8, 16, 7, 7)):
            F = B.LowLevelFeature(t(np.zeros(shape)))
            assert F.frames == 8
            assert F.batch.data.shape == (1 if len(shape) == 4 else 3, 8, 16, 7, 7)

    def test_spatial_mean_follows_data_and_tape(self):
        # one mean per feature array and tape: reused within them, taken anew across
        f = t(np.random.default_rng(3).uniform(0, 1, (2, 3, 4, 2, 2)), grad=True)
        F = B.LowLevelFeature(f)
        untaped = F.spatial_mean
        np.testing.assert_allclose(untaped.data, f.data.mean(axis=(3, 4)), rtol=1e-15)
        assert F.spatial_mean is untaped
        with T.Tape() as tape:
            taped = F.spatial_mean
            assert taped is not untaped and F.spatial_mean is taped
            assert len(tape._records) == 1
        f.data = f.data * 2.0
        np.testing.assert_allclose(F.spatial_mean.data, 2.0 * untaped.data, rtol=1e-15)


class TestIccf:
    def test_zero_input(self):
        p = _params(c_out=4, d=8)
        F = B.LowLevelFeature(t(np.zeros((3, 4, 2, 2))))
        iccf = B.extract_iccf(F, p.plan, p.attn)
        np.testing.assert_array_equal(iccf.data, np.zeros((1, 2, 8, 2, 2)))
        np.testing.assert_allclose(A.temporal_weights(iccf, p.attn).data, 0.5,
                                   atol=1e-12)

    def test_shapes(self):
        p = _params(c_out=6, d=20)
        F = B.LowLevelFeature(t(np.random.default_rng(1)
                                .standard_normal((5, 6, 3, 3))))
        iccf = B.extract_iccf(F, p.plan, p.attn)
        assert iccf.data.shape == (1, 4, 20, 3, 3)
        assert A.temporal_weights(iccf, p.attn).data.shape == (1, 4)

    def test_manual_sketch_oracle(self):
        # t=2, 1x1 spatial: the single pair at the single location must be
        # CS1(f1) (x) CS2(f2) exactly, alpha = [1.0]
        rng = np.random.default_rng(2)
        c, d = 2, 4
        p = _params(c_out=c, d=d, seed=3)
        f = rng.standard_normal((2, c, 1, 1))
        F = B.LowLevelFeature(t(f))
        iccf = B.extract_iccf(F, p.plan, p.attn)
        np.testing.assert_allclose(A.temporal_weights(iccf, p.attn).data, [[1.0]],
                                   atol=1e-12)

        cs1 = np.zeros(d)
        cs2 = np.zeros(d)
        for j in range(c):
            cs1[p.plan.h1[j]] += p.plan.s1[j] * f[0, j, 0, 0]
            cs2[p.plan.h2[j]] += p.plan.s2[j] * f[1, j, 0, 0]
        manual = np.zeros(d)
        for i in range(d):
            for j in range(d):
                manual[(i + j) % d] += cs1[i] * cs2[j]
        np.testing.assert_allclose(iccf.data[0, 0, :, 0, 0], manual,
                                   atol=1e-10)

    def test_attend_false_unit_weights(self):
        # a zero projection weights each of the t-1 = 3 pairs 1/3, so three
        # times its maps are the unattended ones
        rng = np.random.default_rng(4)
        p = _params(c_out=3, d=8)
        F = B.LowLevelFeature(t(rng.standard_normal((4, 3, 2, 2))))
        raw = 3 * B.extract_iccf(F, p.plan, t(np.zeros((8, 1)))).data
        alpha = A.temporal_weights(t(raw), p.attn).data
        weighted = B.extract_iccf(F, p.plan, p.attn).data
        np.testing.assert_allclose(weighted, raw * alpha[:, :, None, None, None],
                                   atol=1e-12)


class TestPairMaps:
    def test_maps(self):
        lead, trail, imf, pooled = B.pair_maps(4)
        eye = np.eye(4)
        np.testing.assert_array_equal(lead, eye[:3])
        np.testing.assert_array_equal(trail, eye[1:])
        np.testing.assert_array_equal(imf, (eye[:3] + eye[1:]) / 2)
        np.testing.assert_array_equal(pooled, np.array([0.5, 1.0, 1.0, 0.5]) / 3)

    def test_built_once_read_only(self):
        maps = B.pair_maps(5)
        assert B.pair_maps(5) is maps
        assert not any(m.flags.writeable for m in maps)


class TestImf:
    def test_equals_sliced_pair_means(self):
        # bit for bit numpy's pair means, and half of each pair's cotangent
        # back on both of its frames
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal((2, 5, 3, 2, 2))
        g = rng.standard_normal((2, 4, 3, 2, 2))
        x = t(x0, grad=True)
        with T.Tape() as tape:
            imf = B.extract_imf(B.LowLevelFeature(x))
            tape.backward(imf, g)
        np.testing.assert_array_equal(imf.data, (x0[:, :-1] + x0[:, 1:]) * 0.5)
        expect = np.zeros_like(x0)
        expect[:, :-1] = g * 0.5
        expect[:, 1:] += g * 0.5
        np.testing.assert_array_equal(x.grad, expect)

    def test_float32_stays_float32(self):
        # the fixed maps apply in the feature's dtype: a float32 feature gets
        # float32 values and, from a float32 cotangent, float32 gradients
        x0 = np.random.default_rng(7).standard_normal((2, 4, 3, 2, 2)).astype(np.float32)
        _, _, imf, pooled = B.pair_maps(4)
        for op in (lambda x: T.mix_frames(x, imf), lambda x: T.mix_frames(x, pooled),
                   lambda x: B.extract_imf(B.LowLevelFeature(x))):
            x = T.Tensor(x0, requires_grad=True)
            with T.Tape() as tape:
                out = op(x)
            tape.backward(out, np.ones_like(out.data))
            assert out.data.dtype == x.grad.dtype == np.float32

    def test_time_constant(self):
        frame = np.random.default_rng(5).standard_normal((3, 4, 4))
        F = B.LowLevelFeature(t(np.stack([frame] * 6)))
        imf = B.extract_imf(F)
        assert imf.data.shape == (1, 5, 3, 4, 4)
        for i in range(5):
            np.testing.assert_allclose(imf.data[0, i], frame, atol=1e-12)

    def test_pairwise_means(self):
        frames = np.stack([np.full((2, 3, 3), float(v)) for v in range(8)])
        F = B.LowLevelFeature(t(frames))
        imf = B.extract_imf(F)
        for i in range(7):
            np.testing.assert_allclose(imf.data[0, i], i + 0.5, atol=1e-12)


class TestExtractActf:
    def test_zero_input_zero_output(self):
        p = _params(c_out=3, d=6)
        for b in (p.reduction["b1"], p.reduction["b2"], p.reduction["b3"]):
            b.data = np.zeros_like(b.data)
        F = B.LowLevelFeature(t(np.zeros((3, 3, 2, 2))))
        out = B.extract_actf(F, p)
        np.testing.assert_allclose(out.data, np.zeros(3), atol=1e-15)

    def test_output_width(self):
        p = _params(c_out=5, d=12)
        F = B.LowLevelFeature(t(np.random.default_rng(6)
                                .standard_normal((4, 5, 2, 2))))
        out = B.extract_actf(F, p)
        assert out.data.shape == (5,)

    def test_manual_composition(self):
        # t=2, 1x1 spatial: sketch pair -> 0.5/0.5 fuse with the frame
        # mean -> global pool (identity here) -> 3-layer relu net
        rng = np.random.default_rng(7)
        c, d = 2, 4
        p = _params(c_out=c, d=d, seed=8)
        f = rng.standard_normal((2, c, 1, 1))
        F = B.LowLevelFeature(t(f))
        out = B.extract_actf(F, p)

        cs1 = np.zeros(d)
        cs2 = np.zeros(d)
        for j in range(c):
            cs1[p.plan.h1[j]] += p.plan.s1[j] * f[0, j, 0, 0]
            cs2[p.plan.h2[j]] += p.plan.s2[j] * f[1, j, 0, 0]
        pair = np.zeros(d)
        for i in range(d):
            for j in range(d):
                pair[(i + j) % d] += cs1[i] * cs2[j]
        l = f.mean(axis=0)[:, 0, 0]
        h = np.concatenate([0.5 * pair, 0.5 * l])

        red = p.reduction
        z = np.maximum(h @ red["w1"].data + red["b1"].data.ravel(), 0.0)
        z = np.maximum(z @ red["w2"].data + red["b2"].data.ravel(), 0.0)
        z = z @ red["w3"].data + red["b3"].data.ravel()
        np.testing.assert_allclose(out.data, z, atol=1e-9)

    def test_batch_rows_match_single_videos(self):
        # a rank-5 batch gives one row per video, each equal to that video
        # on its own (a rank-4 feature, returned unbatched)
        rng = np.random.default_rng(13)
        p = _params(c_out=3, d=8)
        f = rng.standard_normal((3, 4, 3, 2, 2))
        for kw in ({}, {"attend": False}, {"imf_weight_zero": True}):
            batch = B.extract_actf(B.LowLevelFeature(t(f)), p, **kw).data
            assert batch.shape == (3, 3)
            for i in range(3):
                alone = B.extract_actf(B.LowLevelFeature(t(f[i])), p, **kw).data
                np.testing.assert_allclose(batch[i], alone, rtol=0, atol=1e-12)

    def test_gradient_reaches_unbatched_feature(self):
        # a single video's feature, wrapped before the tape, still gets its gradient
        rng = np.random.default_rng(14)
        p = _params(c_out=3, d=6)
        f = t(rng.uniform(0.0, 1.0, (3, 3, 2, 2)), grad=True)
        F = B.LowLevelFeature(f)
        assert gradient_error(lambda: B.extract_actf(F, p), [f]) < 1e-6

    def test_imf_weight_zero_removes_mean_path(self):
        # with the mean branch zeroed, the reduction rows that multiply
        # the mean block can be scrambled without changing the output
        rng = np.random.default_rng(9)
        p = _params(c_out=3, d=6)
        F = B.LowLevelFeature(t(rng.standard_normal((3, 3, 2, 2))))
        out_a = B.extract_actf(F, p, imf_weight_zero=True)
        p.reduction["w1"].data[6:, :] = rng.standard_normal(
            p.reduction["w1"].data[6:, :].shape)
        out_b = B.extract_actf(F, p, imf_weight_zero=True)
        np.testing.assert_allclose(out_a.data, out_b.data, atol=1e-12)

    @pytest.mark.parametrize("kw", [{}, {"attend": False}, {"imf_weight_zero": True},
                                    {"attend": False, "imf_weight_zero": True}])
    @pytest.mark.parametrize("shape", [(4, 3, 2, 3), (2, 4, 3, 2, 3)])
    def test_equals_reduced_mean_of_maps(self, kw, shape):
        # the pooled path equals the paper's form: fuse the ICCF and IMF
        # maps, average over pairs and space, then reduce
        rng = np.random.default_rng(15)
        p = _params(c_out=3, d=8)
        p.pair_fusion.raw_a.data = np.asarray(0.7)
        F = B.LowLevelFeature(t(rng.uniform(0.0, 1.0, shape)))
        attend = kw.get("attend", True)
        if attend:
            iccf = B.extract_iccf(F, p.plan, p.attn)
        else:   # a zero projection weights every pair 1/(t-1)
            iccf = T.scale(B.extract_iccf(F, p.plan, t(np.zeros((8, 1)))), t(F.frames - 1))
        imf = B.extract_imf(F)
        if kw.get("imf_weight_zero"):
            h = T.concat_channels(iccf, T.scale(imf, t(0.0)))
        elif attend:
            h = A.fuse_pair(iccf, imf, p.pair_fusion)
        else:
            h = T.concat_channels(iccf, imf)
        v = B.reduction(T.mean(h, (1, 3, 4)), p.reduction).data
        expect = v[0] if len(shape) == 4 else v
        got = B.extract_actf(F, p, **kw).data
        assert got.shape == expect.shape
        np.testing.assert_allclose(got, expect, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(expect)))

    def test_records_no_per_location_map(self):
        # no tape record holds a (B, t-1, d, H, W)-sized tensor
        rng = np.random.default_rng(16)
        n, frames, c, d, h, w = 2, 4, 3, 8, 3, 2
        p = _params(c_out=c, d=d)
        f = t(rng.uniform(0.0, 1.0, (n, frames, c, h, w)), grad=True)
        for kw in ({}, {"attend": False}, {"imf_weight_zero": True}):
            with T.Tape() as tape:
                B.extract_actf(B.LowLevelFeature(f), p, **kw)
            sizes = [out.data.size for _, out, _ in tape._records]
            assert sizes and max(sizes) < n * (frames - 1) * d * h * w

    @pytest.mark.parametrize("kw", [{}, {"attend": False}, {"imf_weight_zero": True},
                                    {"attend": False, "imf_weight_zero": True}])
    def test_records_no_per_pair_sketch(self, kw):
        # attention and pooling run on second moments: no tape record holds a
        # sketch per frame pair, (B*(t-1), d) or (B, t-1, d)
        rng = np.random.default_rng(17)
        n, frames, c, d, h, w = 2, 4, 3, 8, 3, 2
        p = _params(c_out=c, d=d)
        f = t(rng.uniform(0.0, 1.0, (n, frames, c, h, w)), grad=True)
        with T.Tape() as tape:
            B.extract_actf(B.LowLevelFeature(f), p, **kw)
        shapes = {out.data.shape for _, out, _ in tape._records}
        assert (n, d) in shapes
        assert not shapes & {(n * (frames - 1), d), (n, frames - 1, d)}, shapes

    def test_plan_must_match_channels(self):
        # the sketch primitives refuse a plan drawn for another channel count
        p = _params(c_out=3, d=8)
        F = B.LowLevelFeature(t(np.zeros((3, 4, 2, 2))))
        for call in (lambda: B.extract_actf(F, p), lambda: B.extract_iccf(F, p.plan, p.attn)):
            with pytest.raises(ShapeError, match="input_dim"):
                call()

    def test_pooled_matches_naive_mean(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 4, 3, 5))
        pooled = T.mean(t(x), (0, 2, 3)).data
        naive = np.zeros(4)
        for c in range(4):
            acc = 0.0
            for i in range(6):
                for hh in range(3):
                    for ww in range(5):
                        acc += x[i, c, hh, ww]
            naive[c] = acc / (6 * 3 * 5)
        np.testing.assert_allclose(pooled, naive, atol=1e-12)


class TestReduction:
    def test_layer_widths(self):
        rng = np.random.default_rng(11)
        red = B.init_reduction(10, 5, 8, 4, rng)
        assert red["w1"].data.shape == (10, 5)
        assert red["w2"].data.shape == (5, 8)
        assert red["w3"].data.shape == (8, 4)

    def test_zero_input_zero_biases(self):
        rng = np.random.default_rng(12)
        red = B.init_reduction(6, 3, 4, 2, rng)
        for b in (red["b1"], red["b2"], red["b3"]):
            b.data = np.zeros_like(b.data)
        out = B.reduction(t(np.zeros((3, 6))), red)
        np.testing.assert_allclose(out.data, np.zeros((3, 2)), atol=1e-15)
