"""Finite-difference gradient auditing.

Compares tape gradients against central finite differences (step FD_STEP,
in f64) using a norm-based relative error over all checked leaves.
``run_audit`` covers every differentiable primitive plus the end-to-end model
at tiny dimensions; the CLI ``gradcheck`` command is a thin wrapper over it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import model as M
from . import tensor as T
from .tensor import Tape, Tensor
from .sketch import bilinear_logits, compact_bilinear, make_plan, weighted_bilinear
from .attention import PairFusionWeights, attention_weights, fuse_pair, temporal_weights

PRIMITIVE_TOL = 1e-4
MODEL_TOL = 1e-3
FD_STEP = 1e-5


@dataclass(frozen=True)
class CheckResult:
    name: str
    err: float
    tol: float

    @property
    def ok(self) -> bool:
        return self.err < self.tol


def gradient_error(make_loss, leaves) -> float:
    """Norm-based relative error between tape and finite-difference gradients.

    ``make_loss`` must rebuild the scalar loss from the leaves' current data
    each call; it is invoked once under a tape and 2N more times for the
    central differences.
    """
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        loss = make_loss()
        tape.backward(loss)
    analytic = np.concatenate([
        (leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)).ravel()
        for leaf in leaves
    ])
    numeric = []
    for leaf in leaves:
        # Perturb by assignment, never through a view: 0-d data would
        # silently decay to a numpy scalar and break in-place writes.
        base = np.array(leaf.data, copy=True)
        shape = base.shape
        flat = base.ravel()
        g = np.zeros_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + FD_STEP
            leaf.data = flat.reshape(shape).copy()
            f_plus = float(make_loss().data)
            flat[i] = orig - FD_STEP
            leaf.data = flat.reshape(shape).copy()
            f_minus = float(make_loss().data)
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2 * FD_STEP)
        leaf.data = base
        numeric.append(g)
    numeric = np.concatenate(numeric)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


def _scalarize(out: Tensor, weights: np.ndarray) -> Tensor:
    """Project an op output to a scalar with fixed weights (keeps the check
    sensitive to every output coordinate)."""
    n = out.data.size
    flat = T.reshape(out, (1, n))
    return T.reshape(T.matmul(flat, Tensor(weights.reshape(n, 1))), ())


def _param(rng, shape) -> Tensor:
    return Tensor(rng.standard_normal(shape), requires_grad=True)


def run_audit(seed: int = 0) -> list:
    """Gradient checks for every primitive and the end-to-end model."""
    rng = np.random.default_rng(seed)
    results = []

    def check(name, make_loss, leaves, tol=PRIMITIVE_TOL):
        results.append(CheckResult(name, gradient_error(make_loss, leaves), tol))

    a = _param(rng, (3, 4))
    b = _param(rng, (4, 2))
    w = rng.standard_normal(6)
    check("matmul", lambda: _scalarize(T.matmul(a, b), w), [a, b])

    x = _param(rng, (5, 5))
    w = rng.standard_normal(25)
    s = Tensor(np.asarray(0.7), requires_grad=True)
    check("scale", lambda: _scalarize(T.scale(x, s), w), [x, s])
    # Keep relu inputs away from the kink at 0.
    xr = Tensor(np.where(np.abs(x.data) < 0.1, 0.5, x.data), requires_grad=True)
    check("relu", lambda: _scalarize(T.relu(xr), w), [xr])

    v = _param(rng, (2, 6))
    wv = rng.standard_normal(12)
    check("attention_weights", lambda: _scalarize(attention_weights(v), wv), [v])
    check("reshape", lambda: _scalarize(T.reshape(v, (3, 4)), wv), [v])
    check("transpose", lambda: _scalarize(T.transpose(v, (1, 0)), wv), [v])

    p5 = _param(rng, (2, 3, 2, 4, 4))
    q5 = _param(rng, (2, 3, 5, 4, 4))
    w = rng.standard_normal(2 * 3 * 7 * 4 * 4)
    check("concat_channels", lambda: _scalarize(T.concat_channels(p5, q5), w), [p5, q5])
    alpha = _param(rng, (2, 3))
    w = rng.standard_normal(p5.data.size)
    check("scale", lambda: _scalarize(T.scale(p5, alpha), w), [p5, alpha])
    w = rng.standard_normal(2 * 2)
    check("mean", lambda: _scalarize(T.mean(p5, (1, 3, 4)), w), [p5])
    # The frame axis (3) mapped onto two outputs, or contracted by a vector.
    mix = rng.standard_normal((2, 3))
    w = rng.standard_normal(p5.data.size * 2 // 3)
    check("mix_frames", lambda: _scalarize(T.mix_frames(p5, mix), w), [p5])
    w = rng.standard_normal(p5.data.size // 3)
    check("mix_frames", lambda: _scalarize(T.mix_frames(p5, mix[0]), w), [p5])

    # Integer images and kernels with half-integer biases keep every
    # pre-activation at least 0.5 from the ReLU kink.
    def grid(shape, offset=0.0):
        return Tensor(rng.integers(-2, 3, size=shape) + offset, requires_grad=True)

    xc, wc, bc = grid((2, 3, 6, 6)), grid((4, 3, 3, 3)), grid((4,), 0.5)
    w = rng.standard_normal(2 * 4 * 3 * 3)
    check("conv_relu_pool", lambda: _scalarize(T.conv_relu_pool(xc, wc, bc), w), [xc, wc, bc])
    xn, wn, bn = grid((2, 2, 4, 8)), grid((3, 2, 5, 5)), grid((3,), 0.5)
    w = rng.standard_normal(2 * 3 * 2 * 4)
    check("conv_relu_pool", lambda: _scalarize(T.conv_relu_pool(xn, wn, bn), w), [xn, wn, bn])
    # A plain-Tensor input takes the path that skips its gradient.
    check("conv_relu_pool",
          lambda: _scalarize(T.conv_relu_pool(Tensor(xn.data), wn, bn), w), [wn, bn])

    xl = _param(rng, (3, 4))
    wl = _param(rng, (4, 2))
    bl = _param(rng, (2,))
    w = rng.standard_normal(6)
    check("linear", lambda: _scalarize(T.linear(xl, wl, bl), w), [xl, wl, bl])

    logits = _param(rng, (3, 5))
    check("cross_entropy", lambda: T.cross_entropy(logits, [2, 0, 4]), [logits])

    plan = make_plan(12, 16, seed=seed + 1)
    sx = _param(rng, (12,))
    sy = _param(rng, (12,))
    w = rng.standard_normal(16)
    check("compact_bilinear",
          lambda: _scalarize(compact_bilinear(sx, sy, plan), w), [sx, sy])
    bx = _param(rng, (3, 12))
    by = _param(rng, (3, 12))
    wb = rng.standard_normal(3 * 16)
    check("compact_bilinear",
          lambda: _scalarize(compact_bilinear(bx, by, plan), wb), [bx, by])
    # Two videos of three frames (two pairs each) at five locations.
    frames, sproj, pw = _param(rng, (2, 3, 5, 12)), _param(rng, (16, 1)), _param(rng, (2, 2))
    wz, ws = rng.standard_normal(2 * 2), rng.standard_normal(2 * 16)
    check("bilinear_logits",
          lambda: _scalarize(bilinear_logits(frames, sproj, plan), wz), [frames, sproj])
    check("weighted_bilinear",
          lambda: _scalarize(weighted_bilinear(frames, pw, plan), ws), [frames, pw])

    proj = _param(rng, (6, 1))
    pairs = _param(rng, (2, 3, 6, 2, 2))
    w = rng.standard_normal(6)
    check("temporal_weights",
          lambda: _scalarize(temporal_weights(pairs, proj), w),
          [pairs, proj])

    fw = PairFusionWeights(raw_a=_param(rng, ()), raw_b=_param(rng, ()))
    fa = _param(rng, (2, 8))
    fb = _param(rng, (2, 8))
    w = rng.standard_normal(32)
    check("fuse_pair",
          lambda: _scalarize(fuse_pair(fa, fb, fw), w),
          [fa, fb, fw.raw_a, fw.raw_b])
    w = rng.standard_normal(p5.data.size + q5.data.size)
    check("fuse_pair",
          lambda: _scalarize(fuse_pair(p5, q5, fw), w),
          [p5, q5, fw.raw_a, fw.raw_b])

    # One row or one column: each weight gradient is an outer product.
    x1, w1, b1 = _param(rng, (1, 4)), _param(rng, (4, 2)), _param(rng, (2,))
    w = rng.standard_normal(2)
    check("linear", lambda: _scalarize(T.linear(x1, w1, b1), w), [x1, w1, b1])
    check("matmul", lambda: _scalarize(T.matmul(x1, w1), w), [x1, w1])
    a1, c1 = _param(rng, (3, 4)), _param(rng, (4, 1))
    w = rng.standard_normal(3)
    check("matmul", lambda: _scalarize(T.matmul(a1, c1), w), [a1, c1])
    # A 5x5 kernel on a 2-row image: the taps two rows off miss it entirely.
    xk, wk, bk = grid((2, 3, 2, 4)), grid((4, 3, 5, 5)), grid((4,), 0.5)
    w = rng.standard_normal(2 * 4 * 1 * 2)
    check("conv_relu_pool", lambda: _scalarize(T.conv_relu_pool(xk, wk, bk), w), [xk, wk, bk])

    # Two shards of two rows each.
    xb, wb, bb = _param(rng, (4, 3)), _param(rng, (3, 2)), _param(rng, (2,))
    w = rng.standard_normal(8)
    shard = lambda xs, ls: attention_weights(T.linear(xs, ls["w"], ls["b"]))
    check("batch_parallel",
          lambda: _scalarize(T.batch_parallel(shard, xb, {"w": wb, "b": bb}, 2), w), [xb, wb, bb])

    results.append(model_audit(seed))
    return results


def model_audit(seed: int = 0) -> CheckResult:
    """End-to-end check through forward + loss over all trainable parameters."""
    dims = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                       out_channels=8, sketch_dim=32, n_classes=3)
    rng = np.random.default_rng(seed)
    params = M.init_params(dims, seed, "full")
    # Move fusion scalars off the symmetric zero init so their gradients are
    # generic, and perturb biases off zero.
    for name, t, _ in M.trainable_parameters(params):
        if t.data.size <= 4:
            t.data = np.asarray(t.data + 0.1 * rng.standard_normal(t.data.shape))
    videos = Tensor(rng.uniform(0, 1, size=(2, dims.frames, 3, dims.height, dims.width)))
    labels = [1, 2]
    leaves = [t for _, t, _ in M.trainable_parameters(params)]
    err = gradient_error(lambda: T.cross_entropy(M.forward(videos, params), labels), leaves)
    return CheckResult("model_end_to_end", err, MODEL_TOL)
