"""Count sketch and compact bilinear pooling tests."""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from actf import sketch as S
from actf import tensor as T
from actf.check import gradient_error
from actf.errors import ConfigError, ShapeError


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestPlan:
    def test_table_shapes(self):
        plan = S.make_plan(768, 3840, seed=5)
        for h in (plan.h1, plan.h2):
            assert h.shape == (768,)
            assert (h >= 0).all() and (h < 3840).all()
        for s in (plan.s1, plan.s2):
            assert s.shape == (768,)
            assert set(np.unique(s)) <= {-1.0, 1.0}

    def test_determinism(self):
        a = S.make_plan(32, 128, seed=9)
        b = S.make_plan(32, 128, seed=9)
        np.testing.assert_array_equal(a.h1, b.h1)
        np.testing.assert_array_equal(a.h2, b.h2)
        np.testing.assert_array_equal(a.s1, b.s1)
        np.testing.assert_array_equal(a.s2, b.s2)

    def test_draws_are_pinned(self):
        # checkpoints store only the plan's seed: a change in the order or the
        # kind of make_plan's draws would give every saved model a new sketch
        plan = S.make_plan(8, 16, seed=0)
        np.testing.assert_array_equal(plan.h1, [13, 10, 8, 4, 4, 0, 1, 0])
        np.testing.assert_array_equal(plan.h2, [2, 13, 10, 14, 8, 9, 15, 11])
        np.testing.assert_array_equal(plan.s1, [1, 1, 1, 1, -1, 1, 1, -1])
        np.testing.assert_array_equal(plan.s2, [-1, 1, 1, -1, 1, 1, 1, -1])

    @pytest.mark.parametrize("dims", [(8, 2**31), (2**40, 8), (0, 8)])
    def test_dims_outside_int32_tables_rejected(self, dims):
        with pytest.raises(ConfigError, match="make_plan: dims must be >= 1 and <= 2147483647"):
            S.make_plan(*dims, seed=0)

    def test_degenerate(self):
        plan = S.make_plan(1, 1, seed=0)
        assert plan.h1[0] == 0 and plan.h2[0] == 0
        assert plan.s1[0] in (-1.0, 1.0)


class TestCountSketch:
    def test_basis_vector(self):
        # the count sketch of basis vector j through (h, s) is s[j] at
        # bucket h[j], for both table pairs of the plan
        plan = S.make_plan(8, 16, seed=1)
        for h, s in ((plan.h1, plan.s1), (plan.h2, plan.s2)):
            for j in range(8):
                e = np.zeros(8)
                e[j] = 1.0
                expect = np.zeros(16)
                expect[h[j]] = s[j]
                np.testing.assert_array_equal(S.bucket_sum(e * s, h, 16), expect)

    def test_inner_product_estimator(self):
        # unbiased estimator of <x, y>: averaging over 200 independent
        # plans for a fixed pair recovers the exact dot product
        rng = np.random.default_rng(2)
        c, d = 128, 1024
        x = rng.uniform(0.0, 1.0, c)
        y = rng.uniform(0.0, 1.0, c)
        exact = x @ y
        ests = []
        for trial in range(200):
            plan = S.make_plan(c, d, seed=trial)
            ests.append(S.bucket_sum(x * plan.s1, plan.h1, d)
                        @ S.bucket_sum(y * plan.s1, plan.h1, d))
        assert abs(np.mean(ests) - exact) / abs(exact) < 0.05

    def test_rows_match_scatter_add(self):
        rng = np.random.default_rng(3)
        h = rng.integers(0, 5, size=7)
        v = rng.standard_normal((2, 3, 7))
        expect = np.zeros((2, 3, 5))
        np.add.at(expect, (..., h), v)
        np.testing.assert_allclose(S.bucket_sum(v, h, 5), expect, rtol=0, atol=1e-14)

    def test_plan_buckets(self):
        # the flat table of the signed bucket of every outer-product entry
        # (i, j): its bucket, plus d where the entry's sign s1[i] s2[j] is -1
        plan = S.make_plan(6, 11, seed=4)
        assert plan.buckets.shape == (36,)
        for i in range(6):
            for j in range(6):
                negative = plan.s1[i] * plan.s2[j] < 0
                assert plan.buckets[i * 6 + j] == (plan.h1[i] + plan.h2[j]) % 11 + 11 * negative
        assert (plan.buckets < 11).any() and (plan.buckets >= 11).any()


class TestCompactBilinear:
    def test_basis_pair(self):
        plan = S.make_plan(8, 16, seed=5)
        a, b = 2, 6
        x = np.zeros(8)
        y = np.zeros(8)
        x[a] = 1.0
        y[b] = 1.0
        out = S.compact_bilinear(t(x), t(y), plan).data
        idx = (plan.h1[a] + plan.h2[b]) % 16
        expect = np.zeros(16)
        expect[idx] = plan.s1[a] * plan.s2[b]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_zero_operand(self):
        plan = S.make_plan(8, 16, seed=5)
        rng = np.random.default_rng(6)
        x = t(rng.standard_normal(8))
        z = t(np.zeros(8))
        np.testing.assert_allclose(S.compact_bilinear(x, z, plan).data,
                                   np.zeros(16), atol=1e-15)
        np.testing.assert_allclose(S.compact_bilinear(z, x, plan).data,
                                   np.zeros(16), atol=1e-15)

    def test_median_fidelity(self):
        # nonnegative draws match post-relu activations; zero-mean draws
        # leave the exact product near zero and relative error unbounded
        rng = np.random.default_rng(7)
        c, d = 64, 2048
        errs = []
        for trial in range(100):
            plan = S.make_plan(c, d, seed=1000 + trial)
            x, y, u, v = (rng.uniform(0.0, 1.0, c) for _ in range(4))
            est = S.compact_bilinear(t(x), t(y), plan).data @ \
                S.compact_bilinear(t(u), t(v), plan).data
            exact = (x @ u) * (y @ v)
            errs.append(abs(est - exact) / max(abs(exact), 1e-12))
        assert np.median(errs) < 0.15

    @given(lead=st.sampled_from([(), (3,), (2, 3)]), c=st.integers(1, 9),
           d=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_rows_match_brute_force_sum(self, lead, c, d, seed):
        plan = S.make_plan(c, d, seed=seed)
        rng = np.random.default_rng(seed)
        x = rng.standard_normal(lead + (c,))
        y = rng.standard_normal(lead + (c,))
        out = S.compact_bilinear(t(x), t(y), plan).data
        assert out.shape == lead + (d,)
        for idx in np.ndindex(*lead):
            expect = np.zeros(d)
            for i in range(c):
                for j in range(c):
                    expect[(plan.h1[i] + plan.h2[j]) % d] += (
                        plan.s1[i] * plan.s2[j] * x[idx][i] * y[idx][j])
            np.testing.assert_allclose(out[idx], expect, rtol=0, atol=1e-9)
            alone = S.compact_bilinear(t(x[idx]), t(y[idx]), plan).data
            np.testing.assert_allclose(out[idx], alone, rtol=0, atol=1e-12)

    def test_input_dim_mismatch(self):
        plan = S.make_plan(8, 16, seed=5)
        with pytest.raises(ShapeError, match="input_dim"):
            S.compact_bilinear(t(np.ones((2, 7))), t(np.ones((2, 7))), plan)

    def test_one_tape_record(self):
        plan = S.make_plan(8, 16, seed=5)
        x = t(np.ones((3, 8)), grad=True)
        y = t(np.ones((3, 8)), grad=True)
        with T.Tape() as tape:
            S.compact_bilinear(x, y, plan)
        assert len(tape._records) == 1

    def test_gradcheck(self):
        plan = S.make_plan(5, 8, seed=8)
        rng = np.random.default_rng(9)
        x = t(rng.standard_normal(5), grad=True)
        y = t(rng.standard_normal(5), grad=True)
        assert gradient_error(lambda: S.compact_bilinear(x, y, plan), [x, y]) < 1e-6


def _frames(x, lo, hi):
    """x[:, lo:hi], with the cotangent put back in place."""
    def backward(g):
        gx = np.zeros(x.data.shape)
        gx[:, lo:hi] = g
        return (gx,)

    return T.apply_primitive(x.data[:, lo:hi], (x,), backward)


class TestWeightedBilinear:
    """The two pooled primitives of the temporal branch: ``bilinear_logits``
    and ``weighted_bilinear`` over the consecutive frame pairs of (B, t, L, C)."""

    @given(b=st.integers(1, 3), p=st.integers(1, 4), c=st.integers(1, 9),
           n=st.integers(1, 6), d=st.integers(1, 17), seed=st.integers(0, 2**32 - 1))
    @example(b=1, p=1, c=7, n=5, d=4, seed=10695251)
    @settings(max_examples=60, deadline=None)
    def test_matches_mean_of_compact_bilinear(self, b, p, c, n, d, seed):
        # values and every input gradient equal those of the per-pair pooled
        # sketches: <proj, sketch> for the logits, the w-weighted mean over
        # pairs for the other; P, L and C go down to 1
        signed = S.make_plan(c, d, seed=seed)
        # The same sums with every term made non-negative: absolute inputs and
        # a plan without signs. Rounding scales with these magnitudes, which
        # cancellation in the signed sums cannot shrink.
        unsigned = dataclasses.replace(signed, s1=np.abs(signed.s1), s2=np.abs(signed.s2),
                                       buckets=signed.buckets % d)
        rng = np.random.default_rng(seed)
        f0 = rng.standard_normal((b, p + 1, n, c))
        proj0, w0 = rng.standard_normal((d, 1)), rng.standard_normal((b, p))
        wz, ws = rng.standard_normal((b, p)), rng.standard_normal((b, d))

        def pair_sketches(f, plan):
            first, second = _frames(f, 0, p), _frames(f, 1, p + 1)
            return T.mean(S.compact_bilinear(first, second, plan), (2,))   # (B, P, d)

        def logits(f, proj, plan, pooled):
            if pooled:
                return S.bilinear_logits(f, proj, plan)
            z = T.matmul(T.reshape(pair_sketches(f, plan), (b * p, d)), proj)
            return T.reshape(z, (b, p))

        def weighted(f, w, plan, pooled):
            if pooled:
                return S.weighted_bilinear(f, w, plan)
            return T.mean(T.scale(pair_sketches(f, plan), w), (1,))

        for op, other0, wout in ((logits, proj0, wz), (weighted, w0, ws)):
            def run(pooled, plan=signed, sign=lambda x: x):
                f, other = t(sign(f0), grad=True), t(sign(other0), grad=True)
                with T.Tape() as tape:
                    out = op(f, other, plan, pooled)
                    tape.backward(out, sign(wout))
                return out.data, f.grad, other.grad

            magnitudes = run(False, unsigned, np.abs)
            for got, want, mag in zip(run(True), run(False), magnitudes):
                assert got.shape == want.shape
                scale = max(float(np.max(mag)), 1e-300)
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale

    @pytest.mark.parametrize("b, frames, n, c, d", [(1, 3, 1, 3, 5), (3, 5, 4, 6, 11)])
    def test_adjoint_of_logits(self, b, frames, n, c, d):
        # one trilinear form, transposed two ways:
        # sum_b <proj, weighted_bilinear(f, w)_b> = sum_{b,p} w_bp logits_bp / (t-1)
        plan = S.make_plan(c, d, seed=3)
        rng = np.random.default_rng(4)
        f = t(rng.standard_normal((b, frames, n, c)))
        w, proj = rng.standard_normal((b, frames - 1)), rng.standard_normal((d, 1))
        pooled = float(np.sum(S.weighted_bilinear(f, t(w), plan).data @ proj))
        logits = float(np.sum(w * S.bilinear_logits(f, t(proj), plan).data)) / (frames - 1)
        assert abs(pooled - logits) <= 1e-12 * abs(logits)

    def test_output_shape(self):
        plan = S.make_plan(4, 10, seed=1)
        f = t(np.ones((3, 5, 6, 4)))
        assert S.bilinear_logits(f, t(np.ones((10, 1))), plan).data.shape == (3, 4)
        assert S.weighted_bilinear(f, t(np.ones((3, 4))), plan).data.shape == (3, 10)

    def test_operand_mismatch(self):
        plan = S.make_plan(4, 10, seed=1)
        proj, w = t(np.ones((10, 1))), t(np.ones((3, 4)))
        for frames in (np.ones((5, 6, 4)), np.ones((3, 1, 6, 4))):
            with pytest.raises(ShapeError, match="bilinear_logits"):
                S.bilinear_logits(t(frames), proj, plan)
            with pytest.raises(ShapeError, match="weighted_bilinear"):
                S.weighted_bilinear(t(frames), w, plan)
        f = t(np.ones((3, 5, 6, 4)))
        with pytest.raises(ShapeError, match="projection"):
            S.bilinear_logits(f, t(np.ones((10,))), plan)
        with pytest.raises(ShapeError, match="weights"):
            S.weighted_bilinear(f, t(np.ones((3, 5))), plan)

    def test_input_dim_mismatch(self):
        plan = S.make_plan(4, 10, seed=1)
        f = t(np.ones((3, 5, 6, 5)))
        with pytest.raises(ShapeError, match="input_dim"):
            S.bilinear_logits(f, t(np.ones((10, 1))), plan)
        with pytest.raises(ShapeError, match="input_dim"):
            S.weighted_bilinear(f, t(np.ones((3, 4))), plan)

    def test_gradcheck(self):
        plan = S.make_plan(5, 8, seed=8)
        rng = np.random.default_rng(9)
        f = t(rng.standard_normal((2, 3, 3, 5)), grad=True)
        proj = t(rng.standard_normal((8, 1)), grad=True)
        w = t(rng.standard_normal((2, 2)), grad=True)
        assert gradient_error(lambda: S.bilinear_logits(f, proj, plan), [f, proj]) < 1e-6
        assert gradient_error(lambda: S.weighted_bilinear(f, w, plan), [f, w]) < 1e-6
