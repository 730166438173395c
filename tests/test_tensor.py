"""Unit tests for the autodiff tensor core."""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actf import tensor as T
from actf.check import gradient_error
from actf.errors import InputError, ShapeError


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


def taped(make_out, g):
    """make_out() under a tape, swept back into the leaves from the cotangent g."""
    with T.Tape() as tape:
        out = make_out()
        tape.backward(out, g)
    return out


def assert_c_f64(a):
    assert a.dtype == np.float64 and a.flags.c_contiguous


class TestMatmul:
    def test_identity(self):
        a = t(np.eye(2))
        b = t([[1.0, 2.0], [3.0, 4.0]])
        out = T.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0], [3.0, 4.0]])

    def test_orthogonal(self):
        out = T.matmul(t([[1.0, 0.0]]), t([[0.0], [5.0]]))
        np.testing.assert_array_equal(out.data, [[0.0]])

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        a = t(rng.standard_normal((3, 4)), grad=True)
        b = t(rng.standard_normal((4, 2)), grad=True)
        assert gradient_error(lambda: T.matmul(a, b), [a, b]) < 1e-6

    @pytest.mark.parametrize("shape_a, shape_b", [((1, 4), (4, 3)), ((3, 4), (4, 1))],
                             ids=["one-row", "one-column"])
    def test_rank_one_gradients_are_outer_products(self, shape_a, shape_b):
        # one row of a makes b's gradient an outer product, one column of b
        # makes a's; both are the exact products, in C order
        rng = np.random.default_rng(2)
        a = t(rng.standard_normal(shape_a), grad=True)
        b = t(rng.standard_normal(shape_b), grad=True)
        g = rng.standard_normal((shape_a[0], shape_b[1]))
        taped(lambda: T.matmul(a, b), g)
        if shape_a[0] == 1:
            np.testing.assert_array_equal(b.grad, np.outer(a.data[0], g[0]))
        else:
            np.testing.assert_array_equal(a.grad, np.outer(g[:, 0], b.data[:, 0]))
        assert_c_f64(a.grad)
        assert_c_f64(b.grad)


class TestElementwise:
    def test_relu(self):
        out = T.relu(t([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_propagates_nan(self):
        x = t([np.nan, -1.0, 0.0, 2.0], grad=True)
        with T.Tape() as tape:
            out = T.relu(x)
            tape.backward(out, np.ones(4))
        np.testing.assert_array_equal(out.data, [np.nan, 0.0, 0.0, 2.0])
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 0.0, 1.0])

    def test_scale_identity(self):
        x = t([1.5, -2.5])
        np.testing.assert_array_equal(T.scale(x, t(1.0)).data, x.data)


class TestSigmoid:
    # the array formula that attention_weights and fuse_pair squash with
    def test_zero(self):
        assert T.sigmoid(np.asarray(0.0)) == 0.5

    def test_saturation_no_overflow(self):
        hi = T.sigmoid(np.asarray(1000.0))
        lo = T.sigmoid(np.asarray(-1000.0))
        assert np.isfinite(hi) and np.isfinite(lo)
        assert hi == pytest.approx(1.0)
        assert lo == pytest.approx(0.0)

    def test_matches_two_branch_form(self):
        # The textbook stable form, with exp only of non-positive arguments.
        x = np.linspace(-745.0, 745.0, 200001)
        pos = x >= 0
        ref = np.empty_like(x)
        ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
        e = np.exp(x[~pos])
        ref[~pos] = e / (1.0 + e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid value
            y = T.sigmoid(x)
        assert (ref > 0).all()
        assert np.max(np.abs(y - ref) / ref) < 1e-14


class TestSoftmax:
    # the array formula that attention_weights normalizes each video's pairs with
    def test_equal_inputs(self):
        for n in (1, 3, 7):
            out = T.softmax(np.full(n, 2.0))
            np.testing.assert_allclose(out, np.full(n, 1.0 / n))

    def test_singleton(self):
        np.testing.assert_array_equal(T.softmax(np.array([0.0])), [1.0])

    def test_rows_independent(self):
        x = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 5.0]])
        out = T.softmax(x)
        for i in range(2):
            np.testing.assert_allclose(out[i], T.softmax(x[i]), atol=1e-15)

    def test_direct_formula(self):
        x = np.array([1.0, 2.0, 3.0])
        expect = np.exp(x) / np.exp(x).sum()
        np.testing.assert_allclose(T.softmax(x), expect, atol=1e-12)

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=12))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one(self, xs):
        out = T.softmax(np.asarray(xs, dtype=np.float64))
        assert abs(out.sum() - 1.0) < 1e-12
        assert (out >= 0).all()


class TestConcatChannels:
    def test_neutral_element(self):
        a = t(np.random.default_rng(6).standard_normal((2, 3, 4, 4)))
        b = t(np.zeros((2, 0, 4, 4)))
        np.testing.assert_array_equal(T.concat_channels(a, b).data, a.data)

    def test_split_inverse(self):
        rng = np.random.default_rng(7)
        a = t(rng.standard_normal((2, 3, 4, 4)))
        b = t(rng.standard_normal((2, 5, 4, 4)))
        out = T.concat_channels(a, b).data
        np.testing.assert_array_equal(out[:, :3], a.data)
        np.testing.assert_array_equal(out[:, 3:], b.data)


class TestMean:
    def test_global_matches_mean(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 3, 4, 6))
        out = T.mean(t(x), (0, 2, 3))
        np.testing.assert_allclose(out.data, x.mean(axis=(0, 2, 3)), atol=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(22)
        x = t(rng.standard_normal((2, 3, 4, 2, 2)), grad=True)
        assert gradient_error(lambda: T.mean(x, (1, 3, 4)), [x]) < 1e-6

    @given(shape=st.lists(st.integers(1, 4), min_size=1, max_size=5),
           kind=st.sampled_from(["trailing", "leading", "interleaved", "all"]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_any_axes_match_numpy(self, shape, kind, seed):
        nd = len(shape)
        axes = {"trailing": range(nd // 2, nd), "leading": range((nd + 1) // 2),
                "interleaved": range(nd % 2, nd, 2), "all": range(nd)}[kind]
        rng = np.random.default_rng(seed)
        x = t(rng.standard_normal(shape), grad=True)
        axes = tuple(axes)
        np.testing.assert_allclose(T.mean(x, axes).data, x.data.mean(axis=axes),
                                   rtol=0, atol=1e-12)
        assert gradient_error(lambda: T.mean(x, axes), [x]) < 1e-6


class TestLinear:
    def test_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(23)
        x, w, b = (rng.standard_normal(s) for s in ((3, 4), (4, 2), (2,)))
        np.testing.assert_allclose(T.linear(t(x), t(w), t(b)).data, x @ w + b,
                                   atol=1e-12)

    def test_bias_shape_mismatch(self):
        # one bias shape only: a (1, M) row is refused, not broadcast
        for shape in ((3,), (1, 2)):
            with pytest.raises(ShapeError):
                T.linear(t(np.zeros((3, 4))), t(np.zeros((4, 2))), t(np.zeros(shape)))

    def test_gradcheck(self):
        rng = np.random.default_rng(24)
        x = t(rng.standard_normal((3, 4)), grad=True)
        w = t(rng.standard_normal((4, 2)), grad=True)
        b = t(rng.standard_normal(2), grad=True)
        assert gradient_error(lambda: T.linear(x, w, b), [x, w, b]) < 1e-6

    def test_one_row_weight_gradient_is_outer_product(self):
        # batch 1: the exact outer product, in the C layout the optimizer's
        # velocity has
        rng = np.random.default_rng(25)
        x = t(rng.standard_normal((1, 6)))
        w = t(rng.standard_normal((6, 3)), grad=True)
        b = t(rng.standard_normal(3), grad=True)
        g = rng.standard_normal((1, 3))
        taped(lambda: T.linear(x, w, b), g)
        np.testing.assert_array_equal(w.grad, np.outer(x.data[0], g[0]))
        assert_c_f64(w.grad)

    def test_many_row_weight_gradient_matches_matmul(self):
        rng = np.random.default_rng(26)
        x = t(rng.standard_normal((16, 6)))
        w = t(rng.standard_normal((6, 3)), grad=True)
        b = t(rng.standard_normal(3), grad=True)
        g = rng.standard_normal((16, 3))
        taped(lambda: T.linear(x, w, b), g)
        np.testing.assert_array_equal(w.grad, x.data.T @ g)
        assert_c_f64(w.grad)


class TestAvgPool:
    """The 2x2 mean pool of conv_relu_pool, seen through an identity 1x1 kernel."""

    @staticmethod
    def pool(x):
        c = x.data.shape[1]
        return T.conv_relu_pool(x, t(np.eye(c).reshape(c, c, 1, 1)), t(np.zeros(c)))

    def test_constant(self):
        out = self.pool(t(np.full((4, 2, 6, 6), 3.0)))
        np.testing.assert_allclose(out.data, 3.0)
        assert out.data.shape == (4, 2, 3, 3)

    def test_two_point_mean(self):
        out = self.pool(t(np.array([[[[0.0, 2.0], [0.0, 2.0]]]])))
        np.testing.assert_allclose(out.data, 1.0)
        assert out.data.shape == (1, 1, 1, 1)

    def test_windows_must_tile(self):
        for shape in [(1, 1, 5, 4), (1, 1, 4, 5)]:
            with pytest.raises(ShapeError):
                self.pool(t(np.zeros(shape)))

    def test_backward_spreads_a_quarter_to_each_cell(self):
        # positive inputs keep every ReLU on, so the input gradient is the
        # upsampled cotangent itself, bit for bit; W = 10 pools to an odd width
        rng = np.random.default_rng(10)
        x = t(rng.uniform(0.5, 1.5, (2, 3, 4, 10)), grad=True)
        g = rng.standard_normal((2, 3, 2, 5))
        taped(lambda: self.pool(x), g)
        np.testing.assert_array_equal(x.grad, np.repeat(np.repeat(g / 4, 2, 2), 2, 3))

    def test_nan_cotangent_stays_in_its_block(self):
        # A NaN in one pooled cell's cotangent reaches only that cell's 2x2
        # block of the input gradient; every other cell gets its quarter exactly.
        rng = np.random.default_rng(11)
        x = t(rng.uniform(0.5, 1.5, (2, 1, 4, 8)), grad=True)
        g = rng.standard_normal((2, 1, 2, 4))
        g[0, 0, 1, 2] = np.nan
        taped(lambda: self.pool(x), g)
        expected = np.zeros(x.data.shape, dtype=bool)
        expected[0, 0, 2:4, 4:6] = True
        np.testing.assert_array_equal(np.isnan(x.grad), expected)
        np.testing.assert_array_equal(x.grad, np.repeat(np.repeat(g / 4, 2, 2), 2, 3))

    def test_gradcheck(self):
        rng = np.random.default_rng(9)
        x = t(rng.standard_normal((3, 2, 4, 4)), grad=True)
        w = t(rng.standard_normal((2, 2, 3, 3)), grad=True)
        b = t(rng.standard_normal(2), grad=True)
        assert gradient_error(lambda: T.conv_relu_pool(x, w, b), [x, w, b]) < 1e-6


def conv2d_oracle(x, w, b, g):
    """Loop 'same' convolution and the gradients of sum(g * out)."""
    n, cin, h, wd = x.shape
    cout, _, kh, kw = w.shape
    out = np.zeros((n, cout, h, wd)) + b[None, :, None, None]
    gx, gw = np.zeros_like(x), np.zeros_like(w)
    for r in range(h):
        for c in range(wd):
            for i in range(kh):
                for j in range(kw):
                    rr, cc = r + i - kh // 2, c + j - kw // 2
                    if not (0 <= rr < h and 0 <= cc < wd):
                        continue
                    for o in range(cout):
                        out[:, o, r, c] += x[:, :, rr, cc] @ w[o, :, i, j]
                        gx[:, :, rr, cc] += np.outer(g[:, o, r, c], w[o, :, i, j])
                        gw[o, :, i, j] += g[:, o, r, c] @ x[:, :, rr, cc]
    return out, gx, gw, g.sum(axis=(0, 2, 3))


def conv_relu_pool_oracle(x, w, b, g):
    """The loop convolution, numpy ReLU and a 2x2 mean, and the gradients of
    sum(g * out) through all three."""
    pre = conv2d_oracle(x, w, b, np.zeros(x.shape[:1] + w.shape[:1] + x.shape[2:]))[0]
    n, c, h, wd = pre.shape
    out = np.maximum(pre, 0).reshape(n, c, h // 2, 2, wd // 2, 2).mean(axis=(3, 5))
    g_pre = np.repeat(np.repeat(g / 4, 2, axis=2), 2, axis=3) * (pre > 0)
    return (out,) + conv2d_oracle(x, w, b, g_pre)[1:]


class TestConv2d:
    """The convolution of conv_relu_pool, checked through its ReLU and pool."""

    # The last two kernels are wider than their 2-row image: the taps two or
    # more rows off miss it entirely, and every other off-centre tap is clipped.
    @pytest.mark.parametrize("k, shape", [(1, (2, 3, 6, 8)), (3, (2, 3, 6, 8)),
                                          (5, (2, 3, 6, 8)), (5, (2, 3, 2, 4)),
                                          (7, (2, 3, 2, 4))],
                             ids=["1", "3", "5", "5-wider-than-image", "7-wider-than-image"])
    def test_matches_loop_oracle(self, k, shape):
        rng = np.random.default_rng(k)
        x = t(rng.standard_normal(shape), grad=True)
        w = t(rng.standard_normal((4, 3, k, k)), grad=True)
        b = t(rng.standard_normal(4), grad=True)
        g = rng.standard_normal((2, 4, shape[2] // 2, shape[3] // 2))
        out = taped(lambda: T.conv_relu_pool(x, w, b), g)
        expected = conv_relu_pool_oracle(x.data, w.data, b.data, g)
        for got, want in zip((out.data, x.grad, w.grad, b.grad), expected):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-10)

    def test_input_without_grad_gets_none(self):
        rng = np.random.default_rng(4)
        xd = rng.standard_normal((2, 3, 6, 4))
        g = rng.standard_normal((2, 5, 3, 2))
        w = t(rng.standard_normal((5, 3, 3, 3)), grad=True)
        b = t(rng.standard_normal(5), grad=True)
        x = t(xd)
        taped(lambda: T.conv_relu_pool(x, w, b), g)
        assert x.grad is None
        w_ref = t(w.data, grad=True)
        b_ref = t(b.data, grad=True)
        taped(lambda: T.conv_relu_pool(t(xd, grad=True), w_ref, b_ref), g)
        np.testing.assert_array_equal(w.grad, w_ref.grad)
        np.testing.assert_array_equal(b.grad, b_ref.grad)

    def test_even_kernel(self):
        with pytest.raises(ShapeError):
            T.conv_relu_pool(t(np.zeros((1, 2, 4, 4))), t(np.zeros((3, 2, 2, 2))), t(np.zeros(3)))

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            T.conv_relu_pool(t(np.zeros((1, 2, 4, 4))), t(np.zeros((3, 4, 3, 3))), t(np.zeros(3)))

    def test_nan_pixel_stays_nan(self):
        rng = np.random.default_rng(6)
        xd = rng.standard_normal((2, 3, 8, 8))
        xd[0, 1, 2, 5] = np.nan
        w = t(rng.standard_normal((4, 3, 3, 3)), grad=True)
        with np.errstate(invalid="raise"):
            out = T.conv_relu_pool(t(xd), w, t(rng.standard_normal(4)))
        nan = np.isnan(out.data)
        # The pixel reaches conv outputs in rows 1-3 and columns 4-6: pooled
        # rows 0-1 and columns 2-3 of the first video, in every channel.
        expected = np.zeros_like(nan)
        expected[0, :, 0:2, 2:4] = True
        np.testing.assert_array_equal(nan, expected)

    def test_inf_pixel_matches_oracle(self):
        # The pixel makes its conv outputs ±inf: +inf survives the ReLU and
        # makes its pooled cell inf; every other cell stays finite and exact.
        rng = np.random.default_rng(6)
        xd = rng.standard_normal((2, 3, 8, 8))
        xd[0, 1, 2, 5] = np.inf
        wd, bd = rng.standard_normal((4, 3, 3, 3)), rng.standard_normal(4)
        with np.errstate(invalid="raise"):
            out = T.conv_relu_pool(t(xd), t(wd), t(bd))
        with np.errstate(invalid="ignore"):  # the oracle's gradients meet 0·inf
            want = conv_relu_pool_oracle(xd, wd, bd, np.zeros(out.data.shape))[0]
        assert np.isinf(want).any()
        # Also requires inf exactly where the oracle has it.
        np.testing.assert_allclose(out.data, want, rtol=0, atol=1e-10)

    def test_backward_frees_im2col_before_col2im(self):
        # Layer-2 shapes at the default dims: 16 videos x 8 frames, 8 -> 64
        # channels, 12x12. The backward holds the pre-activation's cotangent
        # and the col2im buffer at once; it frees im2col and the ReLU mask,
        # which the tape never reads again, before col2im is allocated. Its
        # traced peak then rises by less than one col2im buffer (10.1 MiB);
        # keeping im2col alive would make the rise about 19 MiB.
        rng = np.random.default_rng(7)
        x = t(rng.standard_normal((128, 8, 12, 12)), grad=True)
        w = t(rng.standard_normal((64, 8, 3, 3)), grad=True)
        b = t(rng.standard_normal(64), grad=True)
        col2im_bytes = 8 * 3 * 3 * 128 * 12 * 12 * 8
        tracemalloc.start()
        try:
            with T.Tape() as tape:
                loss = T.mean(T.conv_relu_pool(x, w, b), (0, 1, 2, 3))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            tape.backward(loss)
            rise = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert rise < col2im_bytes, rise / 2 ** 20


class TestMixFrames:
    def test_selection_matches_slices(self):
        # 0/1 rows pick frames: the value and the gradient are numpy's slice
        # and the cotangent put back in place
        rng = np.random.default_rng(20)
        x0, g = rng.standard_normal((2, 4, 3, 2)), rng.standard_normal((2, 2, 3, 2))
        x = t(x0, grad=True)
        out = taped(lambda: T.mix_frames(x, np.eye(4)[1:3]), g)
        np.testing.assert_array_equal(out.data, x0[:, 1:3])
        expect = np.zeros_like(x0)
        expect[:, 1:3] = g
        np.testing.assert_array_equal(x.grad, expect)

    def test_vector_drops_frame_axis(self):
        rng = np.random.default_rng(23)
        x0, w = rng.standard_normal((3, 5, 2, 2)), rng.standard_normal(5)
        g = rng.standard_normal((3, 2, 2))
        x = t(x0, grad=True)
        out = taped(lambda: T.mix_frames(x, w), g)
        np.testing.assert_allclose(out.data, np.einsum("t,btij->bij", w, x0), rtol=1e-13)
        np.testing.assert_array_equal(x.grad, w[None, :, None, None] * g[:, None])

    def test_bad_weights(self):
        x = t(np.zeros((1, 4, 2)))
        for w in (np.ones(3), np.ones((2, 5)), np.ones((1, 2, 4))):
            with pytest.raises(ShapeError, match="mix_frames"):
                T.mix_frames(x, w)
        with pytest.raises(ShapeError, match="mix_frames"):
            T.mix_frames(t(np.zeros(4)), np.ones(4))

    @pytest.mark.parametrize("w_shape", [(2, 5), (5,)], ids=["matrix", "vector"])
    def test_gradcheck(self, w_shape):
        rng = np.random.default_rng(21)
        x = t(rng.standard_normal((2, 5, 3)), grad=True)
        w = rng.standard_normal(w_shape)
        assert gradient_error(lambda: T.mix_frames(x, w), [x]) < 1e-6


class TestScaleFrames:
    def test_forward(self):
        x = t(np.ones((3, 2, 2)))
        s = t([1.0, 2.0, -1.0])
        out = T.scale(x, s)
        np.testing.assert_array_equal(out.data[0], np.ones((2, 2)))
        np.testing.assert_array_equal(out.data[1], 2.0 * np.ones((2, 2)))
        np.testing.assert_array_equal(out.data[2], -np.ones((2, 2)))

    def test_shape_mismatch(self):
        # the weight's shape must be a leading prefix of x's shape
        for x_shape, s_shape in (((3, 2), (4,)), ((3, 2), (2,)), ((3, 2), (3, 2, 1)),
                                 ((3, 2), (1,)), ((2, 3, 4), (2, 4))):
            with pytest.raises(ShapeError, match="leading axes"):
                T.scale(t(np.zeros(x_shape)), t(np.zeros(s_shape)))

    def test_weight_over_each_leading_rank(self):
        # a 0-d weight and weights over one or two leading axes all broadcast
        # over the remaining axes; each weight's gradient has its shape
        rng = np.random.default_rng(22)
        x0 = rng.standard_normal((2, 3, 4))
        g = rng.standard_normal((2, 3, 4))
        for s0 in (np.asarray(1.5), rng.standard_normal(2), rng.standard_normal((2, 3))):
            x, s = t(x0, grad=True), t(s0, grad=True)
            expand = s0.reshape(s0.shape + (1,) * (3 - s0.ndim))
            out = taped(lambda: T.scale(x, s), g)
            np.testing.assert_array_equal(out.data, x0 * expand)
            np.testing.assert_array_equal(x.grad, g * expand)
            assert s.grad.shape == s0.shape and isinstance(s.grad, np.ndarray)
            np.testing.assert_allclose(s.grad, (g * x0).sum(axis=tuple(range(s0.ndim, 3))),
                                       rtol=1e-13)

    def test_gradcheck(self):
        rng = np.random.default_rng(21)
        x = t(rng.standard_normal((3, 2, 2)), grad=True)
        s = t(rng.standard_normal(3), grad=True)
        assert gradient_error(lambda: T.scale(x, s), [x, s]) < 1e-6


class TestCrossEntropy:
    def test_uniform_logits(self):
        out = T.cross_entropy(t(np.zeros((2, 4))), [1, 3])
        assert out.data == pytest.approx(np.log(4.0), abs=1e-12)

    def test_dominant_logit(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 50.0
        assert T.cross_entropy(t(logits), [2]).data < 1e-9

    def test_direct_formula(self):
        # the batch mean of -log p[label] per row
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 6))
        p = np.exp(x - x.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        out = T.cross_entropy(t(x), [3, 0])
        expect = -(np.log(p[0, 3]) + np.log(p[1, 0])) / 2
        assert out.data == pytest.approx(expect, abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(InputError):
            T.cross_entropy(t(np.zeros((2, 4))), [1, 4])

    def test_gradcheck(self):
        x = t(np.random.default_rng(12).standard_normal((3, 5)), grad=True)
        assert gradient_error(lambda: T.cross_entropy(x, [2, 0, 2]), [x]) < 1e-6


class TestTape:
    def test_backward_accumulates(self):
        # both blocks of concat(x, x) are x: its two cotangents add up to 2
        x = t([2.0, 3.0], grad=True)
        with T.Tape() as tape:
            y = T.concat_channels(x, x)
            tape.backward(y, np.ones(4))
        np.testing.assert_allclose(x.grad, [2.0, 2.0])

    def test_shared_cotangent_stays_intact(self):
        # a primitive may hand one cotangent array to both of its inputs; when
        # a later contribution reaches one of them, the other's gradient is unchanged
        def add(a, b):
            return T.apply_primitive(a.data + b.data, (a, b), lambda g: (g, g))

        a = t([1.0, 2.0], grad=True)
        b = t([3.0, 4.0], grad=True)
        with T.Tape() as tape:
            y = add(add(a, b), a)
            tape.backward(y, np.array([1.0, 10.0]))
        np.testing.assert_array_equal(a.grad, [2.0, 20.0])
        np.testing.assert_array_equal(b.grad, [1.0, 10.0])

    def test_record_without_cotangent_is_skipped(self):
        # a recorded output that the loss never uses gets no cotangent: its
        # backward never runs, and its input gets no gradient
        a = t([1.0, 2.0], grad=True)
        b = t([3.0, 4.0], grad=True)
        with T.Tape() as tape:
            T.apply_primitive(a.data * 2.0, (a,), lambda g: pytest.fail("skipped record ran"))
            tape.backward(T.reshape(b, (2,)), np.ones(2))
        assert a.grad is None
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])

    def test_misshaped_gradient_raises(self):
        x = t([1.0, 2.0, 3.0], grad=True)
        with T.Tape() as tape:
            y = T.apply_primitive(x.data.sum(), (x,), lambda g: (np.ones(1) * g,))
            with pytest.raises(ShapeError, match="gradient of shape"):
                tape.backward(y)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_cotangent_seeded_as_given(self, dtype):
        # no copy and no cast: a reshape hands the cotangent back to its input
        # bit for bit, as a view of it in its own dtype
        x = t(np.zeros((2, 3)), grad=True)
        g = np.random.default_rng(13).standard_normal(6).astype(dtype)
        with T.Tape() as tape:
            y = T.reshape(x, (6,))
        tape.backward(y, g)
        assert x.grad.dtype == dtype and np.shares_memory(x.grad, g)
        np.testing.assert_array_equal(x.grad, g.reshape(2, 3))

    def test_misshaped_cotangent_raises(self):
        x = t([1.0, 2.0], grad=True)
        for g in (np.ones(3), np.ones((2, 1)), np.ones(())):
            with T.Tape() as tape:
                y = T.relu(x)
                with pytest.raises(ShapeError, match="cotangent"):
                    tape.backward(y, g)
        assert x.grad is None

    def test_backward_requires_scalar(self):
        x = t([1.0, 2.0], grad=True)
        with T.Tape() as tape:
            y = T.relu(x)
            with pytest.raises(ShapeError):
                tape.backward(y)

    def test_untaped_forward_matches_taped(self):
        # relu and conv_relu_pool keep their ReLU mask only for a record;
        # the forward value is the same bit for bit either way
        rng = np.random.default_rng(10)
        x = t(rng.standard_normal((2, 3, 6, 4)), grad=True)
        w = t(rng.standard_normal((4, 3, 3, 3)), grad=True)
        b = t(rng.standard_normal(4), grad=True)
        ops = (lambda: T.relu(x), lambda: T.conv_relu_pool(x, w, b))
        untaped = [op().data for op in ops]
        with T.Tape():
            taped = [op().data for op in ops]
        for u, v in zip(untaped, taped):
            np.testing.assert_array_equal(u, v)

    def test_no_grad_outside_tape(self):
        x = t([1.0], grad=True)
        y = T.scale(x, t(2.0))
        assert y.data[0] == 2.0
        assert x.grad is None
