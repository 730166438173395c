"""Compact bilinear map: count sketches combined by circular convolution.

Approximates the flattened outer product of two feature vectors in a low
dimension d, preserving inner products in expectation:
    E[<compact_bilinear(x, y), compact_bilinear(u, v)>] = <x, u> <y, v>
The hash/sign tables are frozen at plan creation and never trained.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Tensor, apply_primitive


@dataclass(frozen=True)
class SketchPlan:
    """Frozen random tables defining the sketch map and its output dimension.

    h1/h2 map input coordinates to buckets in [0, output_dim); s1/s2 are
    +-1 signs. Both pairs are drawn independently and are fully reproducible
    from ``seed``. ``buckets`` is the flat (input_dim**2,) table of
    (h1[i] + h2[j]) mod output_dim, the bucket of the outer-product entry
    (i, j).
    """

    input_dim: int
    output_dim: int
    seed: int
    h1: np.ndarray
    h2: np.ndarray
    s1: np.ndarray
    s2: np.ndarray
    buckets: np.ndarray = field(repr=False)


def make_plan(input_dim: int, output_dim: int, seed: int) -> SketchPlan:
    """Draw hash and sign tables deterministically from ``seed``."""
    if input_dim < 1 or output_dim < 1:
        raise ConfigError(f"make_plan: dims must be >= 1, got ({input_dim}, {output_dim})")
    rng = np.random.default_rng(seed)
    h1 = rng.integers(0, output_dim, size=input_dim, dtype=np.int32)
    h2 = rng.integers(0, output_dim, size=input_dim, dtype=np.int32)
    s1 = (rng.integers(0, 2, size=input_dim) * 2 - 1).astype(np.float64)
    s2 = (rng.integers(0, 2, size=input_dim) * 2 - 1).astype(np.float64)
    buckets = (h1.astype(np.intp)[:, None] + h2) % output_dim
    return SketchPlan(input_dim, output_dim, int(seed), h1, h2, s1, s2, buckets.ravel())


def bucket_sum(v: np.ndarray, h: np.ndarray, d: int) -> np.ndarray:
    """Rows of v (..., K) summed into d buckets by one flat bincount:
    out[..., h[k]] += v[..., k]. With signs s folded into v, the count sketch."""
    lead, k = v.shape[:-1], v.shape[-1]
    n = int(np.prod(lead))
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


def pooled_bilinear(x: Tensor, y: Tensor, plan: SketchPlan) -> Tensor:
    """Mean over l of compact_bilinear(x[p, :, l], y[p, :, l]): (P, C, L) -> (P, d).

    The sketch is linear in the outer product, so this is the bucket sum of
    each second moment M = x y^T / L (P, C, C), with no per-location map.
    Backward gathers the cotangent through the buckets into dL/dM, then
    runs two batched GEMMs.
    """
    if x.data.ndim != 3 or x.data.shape != y.data.shape:
        raise ShapeError(
            f"pooled_bilinear: operands {x.data.shape} and {y.data.shape} are not equal (P, C, L)"
        )
    p, c, n = x.data.shape
    if c != plan.input_dim:
        raise ShapeError(f"pooled_bilinear: axis 1 {c} != plan input_dim {plan.input_dim}")
    xs, ys = x.data * plan.s1[:, None], y.data * plan.s2[:, None]
    m = xs @ ys.transpose(0, 2, 1)

    def backward(g):
        gm = np.take(g / n, plan.buckets, axis=1).reshape(p, c, c)
        return ((gm @ ys) * plan.s1[:, None],
                (gm.transpose(0, 2, 1) @ xs) * plan.s2[:, None])

    out = bucket_sum(m.reshape(p, c * c), plan.buckets, plan.output_dim) / n
    return apply_primitive(out, (x, y), backward)
