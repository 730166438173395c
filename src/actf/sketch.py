"""Compact bilinear map: count sketches combined by circular convolution.

Approximates the flattened outer product of two feature vectors in a low
dimension d, preserving inner products in expectation:
    E[<compact_bilinear(x, y), compact_bilinear(u, v)>] = <x, u> <y, v>
The hash/sign tables are frozen at plan creation and never trained.

The map is linear in the outer product, so a weighted mean of sketches over
locations and frame pairs is the sketch of the same mean of second moments.
``bilinear_logits`` and ``weighted_bilinear`` attend over and pool a video's
frame pairs this way, with no pair sketched on its own. They transpose one
trilinear form, so each one's backward is the other's forward, and the pair
contraction ``_contract`` and the video moment ``_moment`` build both.
Entry (i, j) of an outer product has one bucket, (h1[i] + h2[j]) mod d, and
one sign, s1[i] s2[j]; the plan's ``buckets`` table holds both, so these two
apply the signs where they gather from or sum into the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, apply_primitive


@dataclass(frozen=True)
class SketchPlan:
    """Frozen random tables defining the sketch map and its output dimension.

    h1/h2 map input coordinates to buckets in [0, output_dim); s1/s2 are
    +-1 signs. Both pairs are drawn independently and are fully reproducible
    from ``seed``. ``buckets`` is the flat (input_dim**2,) table, with values
    in [0, 2 * output_dim), of the signed bucket of the outer-product entry
    (i, j): (h1[i] + h2[j]) mod output_dim, plus output_dim where
    s1[i] * s2[j] = -1.
    """

    input_dim: int
    output_dim: int
    seed: int
    h1: np.ndarray
    h2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    buckets: np.ndarray = field(repr=False)


# The largest dim of a plan: its hash tables are int32.
MAX_SIZE = int(np.iinfo(np.int32).max)


def make_plan(input_dim: int, output_dim: int, seed: int) -> SketchPlan:
    """Draw hash and sign tables deterministically from ``seed``."""
    if not (1 <= input_dim <= MAX_SIZE and 1 <= output_dim <= MAX_SIZE):
        raise ConfigError(
            f"make_plan: dims must be >= 1 and <= {MAX_SIZE}, got ({input_dim}, {output_dim})")
    rng = np.random.default_rng(seed)
    h1 = rng.integers(0, output_dim, size=input_dim, dtype=np.int32)
    h2 = rng.integers(0, output_dim, size=input_dim, dtype=np.int32)
    s1 = (rng.integers(0, 2, size=input_dim) * 2 - 1).astype(np.float64)
    s2 = (rng.integers(0, 2, size=input_dim) * 2 - 1).astype(np.float64)
    buckets = (h1.astype(np.intp)[:, None] + h2) % output_dim + output_dim * (s1[:, None] != s2)
    return SketchPlan(input_dim, output_dim, int(seed), h1, h2, s1, s2, buckets.ravel())


def bucket_sum(v: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """Rows of v (..., K) summed into d buckets by one flat bincount:
    out[..., h[k]] += v[..., k]. With signs s folded into v, the count sketch."""
    lead, k = v.shape[:-1], v.shape[-1]
    n = math.prod(lead)
    flat = (np.arange(n)[:, None] * d + h).ravel()
    return np.bincount(flat, weights=v.reshape(n * k), minlength=n * d).reshape(lead + (d,))


def compact_bilinear(x: Tensor, y: Tensor, plan: SketchPlan) -> Tensor:
    """Sketch of the outer product x y^T: CS1(x) circularly convolved with CS2(y).

    Takes equal-shaped (..., input_dim) operands and maps each row alone to
    (..., output_dim); one tape record, differentiable in both arguments.
    Backward correlates the cotangent with the saved spectra, then gathers
    through the hash tables.
    """
    if x.data.shape != y.data.shape:
        raise ShapeError(
            f"compact_bilinear: shape mismatch {x.data.shape} vs {y.data.shape}"
        )
    if x.data.shape[-1] != plan.input_dim:
        raise ShapeError(
            f"compact_bilinear: last axis {x.data.shape[-1]} != plan input_dim {plan.input_dim}"
        )
    d = plan.output_dim
    fa = np.fft.rfft(bucket_sum(x.data * plan.s1, plan.h1, d), axis=-1)
    fb = np.fft.rfft(bucket_sum(y.data * plan.s2, plan.h2, d), axis=-1)

    def backward(g):
        fg = np.fft.rfft(g, axis=-1)
        ga = np.fft.irfft(fg * np.conj(fb), n=d, axis=-1)
        gb = np.fft.irfft(fg * np.conj(fa), n=d, axis=-1)
        return ga[..., plan.h1] * plan.s1, gb[..., plan.h2] * plan.s2

    return apply_primitive(np.fft.irfft(fa * fb, n=d, axis=-1), (x, y), backward)


def _pairs(f: Tensor, plan: SketchPlan, opname: str):
    """Check frames (B, t, L, C) against the plan. Returns views of the leading
    and the trailing frames of the t-1 consecutive pairs, as (B, (t-1)*L, C) rows."""
    if f.data.ndim != 4 or f.data.shape[1] < 2:
        raise ShapeError(f"{opname}: frames {f.data.shape} are not (B, t >= 2, L, C)")
    b, t, n, c = f.data.shape
    if c != plan.input_dim:
        raise ShapeError(f"{opname}: last axis {c} != plan input_dim {plan.input_dim}")
    rows = f.data.reshape(b, t * n, c)
    return rows[:, :-n], rows[:, n:]


def _signed_take(v: np.ndarray, plan: SketchPlan) -> np.ndarray:
    """Rows v (..., d) to (..., C*C) entries s1[i] s2[j] v[(h1[i] + h2[j]) % d]."""
    return np.take(np.concatenate((v, -v), axis=-1), plan.buckets, axis=-1)


def _signed_sum(m: np.ndarray, plan: SketchPlan) -> np.ndarray:
    """Rows m (..., C*C) summed into their signed buckets, the adjoint of ``_signed_take``."""
    out = bucket_sum(m, plan.buckets, 2 * plan.output_dim)
    return out[..., :plan.output_dim] - out[..., plan.output_dim:]


def _contract(x: np.ndarray, y: np.ndarray, q: np.ndarray, p: int):
    """Per pair of rows x, y (B, P*L, C): the sum over its L rows of x_l^T Q y_l,
    (B, P), for one Q (C, C) or one per video (B, C, C); and the rows (Q y_l)^T."""
    qy = y @ np.swapaxes(q, -1, -2)
    return np.einsum("bpk,bpk->bp", x.reshape(len(x), p, -1), qy.reshape(len(x), p, -1)), qy


def _moment(x: np.ndarray, y: np.ndarray, w: np.ndarray, plan: SketchPlan):
    """Per video, the signed bucket sum (B, d) of the moment sum_p w_p sum_l x_l y_l^T
    of rows x, y (B, P*L, C) and pair weights w (B, P), one GEMM; and the rows w_p x_l."""
    b, p = w.shape
    xw = (x.reshape(b, p, -1) * w[..., None]).reshape(x.shape)
    return _signed_sum((xw.transpose(0, 2, 1) @ y).reshape(b, -1), plan), xw


def _frames_grad(qy: np.ndarray, xw: np.ndarray, q: np.ndarray, w: np.ndarray, shape):
    """The gradient of frames (B, t, L, C) of sum_p w_p sum_l x_l^T Q y_l: qy of
    ``_contract`` times w_p (in place: the tape runs a backward once) on each
    pair's leading frame, plus xw of ``_moment`` times Q on its trailing one."""
    b, t, n, c = shape
    lead = qy.reshape(b, t - 1, -1)
    lead *= w[..., None]
    g = np.empty((b, t * n, c))
    np.matmul(xw, q, out=g[:, n:])
    g[:, :n] = 0.0
    g[:, :-n] += qy
    return g.reshape(shape)


def bilinear_logits(f: Tensor, proj: Tensor, plan: SketchPlan) -> Tensor:
    """Pair logits <proj, mean over l of compact_bilinear(f[b, p, l], f[b, p+1, l])>
    of frames (B, t, L, C): (B, t-1).

    The sketch is linear in the outer product, so a logit is the contraction
    sum_l x_l^T Q y_l / L with Q[i, j] = s1[i] s2[j] proj[(h1[i] + h2[j]) mod d],
    one (C, C) gather of proj through the signed buckets: one GEMM over all
    B*(t-1)*L rows, and no pair is sketched. The projection's gradient is
    ``weighted_bilinear``'s forward with the cotangent as the weights: each
    video's signed bucket sum of its moment, added over videos.
    """
    x, y = _pairs(f, plan, "bilinear_logits")
    if proj.data.shape != (plan.output_dim, 1):
        raise ShapeError(
            f"bilinear_logits: projection {proj.data.shape} is not ({plan.output_dim}, 1)"
        )
    b, t, n, c = f.data.shape
    q = _signed_take(proj.data[:, 0], plan).reshape(c, c)
    z, qy = _contract(x, y, q, t - 1)

    def backward(g):
        gproj, xg = _moment(x, y, g / n, plan)
        return _frames_grad(qy, xg, q, g / n, f.data.shape), gproj.sum(axis=0)[:, None]

    return apply_primitive(z / n, (f, proj), backward)


def weighted_bilinear(f: Tensor, w: Tensor, plan: SketchPlan) -> Tensor:
    """The w-weighted mean over pairs p and locations l of
    compact_bilinear(f[b, p, l], f[b, p+1, l]), for frames (B, t, L, C) and
    pair weights (B, t-1): (B, d). Weights of 1 give the plain mean.

    The sketch is linear in the outer product, so a video's output is the
    signed bucket sum of one (C, C) moment sum_p w_p x_p y_p^T / ((t-1) L): one
    GEMM per video, whose inner dimension is (t-1)*L, and no pair is sketched.
    Backward gathers the cotangent through the signed buckets once per video
    into G, and the weights' gradient is ``bilinear_logits``' contraction with G.
    """
    x, y = _pairs(f, plan, "weighted_bilinear")
    b, t, n, c = f.data.shape
    if w.data.shape != (b, t - 1):
        raise ShapeError(f"weighted_bilinear: weights {w.data.shape} are not ({b}, {t - 1})")
    k = 1.0 / ((t - 1) * n)
    out, xw = _moment(x, y, w.data * k, plan)

    def backward(g):
        gm = _signed_take(g, plan).reshape(b, c, c)
        gw, gy = _contract(x, y, gm, t - 1)
        return _frames_grad(gy, xw, gm, w.data * k, f.data.shape), gw * k

    return apply_primitive(out, (f, w), backward)
