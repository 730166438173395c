"""Finite-difference gradient auditing.

Compares tape gradients against central finite differences (step FD_STEP,
in f64) using a norm-based relative error over all checked leaves. A check
seeds its primitive's output with a cotangent and reads that primitive's
backward alone, with no helper primitive between it and the loss.
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
    """Norm-based relative error between tape and finite-difference gradients
    of <w, f>, for the output f that ``make_loss`` returns and a fixed cotangent w.

    A 0-d f gets w = 1, as ``Tape.backward`` seeds a loss. Any other f gets one
    standard-normal direction drawn from a generator seeded by f's size. The
    tape side is ``Tape.backward(f, w)``; the numeric side differences
    ``np.vdot(f, w)``. ``make_loss`` must rebuild f from the leaves' current
    data each call; it is invoked once under a tape and 2N more times for the
    central differences.
    """
    for leaf in leaves:
        leaf.grad = None
    with Tape() as tape:
        f = make_loss()
        w = (np.random.default_rng(f.data.size).standard_normal(f.data.shape)
             if f.data.ndim else np.ones(()))
        tape.backward(f, w)
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
            f_plus = np.vdot(make_loss().data, w)
            flat[i] = orig - FD_STEP
            leaf.data = flat.reshape(shape).copy()
            f_minus = np.vdot(make_loss().data, w)
            flat[i] = orig
            g[i] = (f_plus - f_minus) / (2 * FD_STEP)
        leaf.data = base
        numeric.append(g)
    numeric = np.concatenate(numeric)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return float(np.linalg.norm(analytic - numeric) / denom)


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
    check("matmul", lambda: T.matmul(a, b), [a, b])

    x = _param(rng, (5, 5))
    s = Tensor(np.asarray(0.7), requires_grad=True)
    check("scale", lambda: T.scale(x, s), [x, s])
    # Keep relu inputs away from the kink at 0.
    xr = Tensor(np.where(np.abs(x.data) < 0.1, 0.5, x.data), requires_grad=True)
    check("relu", lambda: T.relu(xr), [xr])

    v = _param(rng, (2, 6))
    check("attention_weights", lambda: attention_weights(v), [v])
    check("reshape", lambda: T.reshape(v, (3, 4)), [v])
    check("transpose", lambda: T.transpose(v, (1, 0)), [v])

    p5 = _param(rng, (2, 3, 2, 4, 4))
    q5 = _param(rng, (2, 3, 5, 4, 4))
    check("concat_channels", lambda: T.concat_channels(p5, q5), [p5, q5])
    alpha = _param(rng, (2, 3))
    check("scale", lambda: T.scale(p5, alpha), [p5, alpha])
    check("mean", lambda: T.mean(p5, (1, 3, 4)), [p5])
    # The frame axis (3) mapped onto two outputs, or contracted by a vector.
    mix = rng.standard_normal((2, 3))
    check("mix_frames", lambda: T.mix_frames(p5, mix), [p5])
    check("mix_frames", lambda: T.mix_frames(p5, mix[0]), [p5])

    # Integer images and kernels with half-integer biases keep every
    # pre-activation at least 0.5 from the ReLU kink.
    def grid(shape, offset=0.0):
        return Tensor(rng.integers(-2, 3, size=shape) + offset, requires_grad=True)

    xc, wc, bc = grid((2, 3, 6, 6)), grid((4, 3, 3, 3)), grid((4,), 0.5)
    check("conv_relu_pool", lambda: T.conv_relu_pool(xc, wc, bc), [xc, wc, bc])
    xn, wn, bn = grid((2, 2, 4, 8)), grid((3, 2, 5, 5)), grid((3,), 0.5)
    check("conv_relu_pool", lambda: T.conv_relu_pool(xn, wn, bn), [xn, wn, bn])
    # A plain-Tensor input takes the path that skips its gradient.
    check("conv_relu_pool", lambda: T.conv_relu_pool(Tensor(xn.data), wn, bn), [wn, bn])

    xl = _param(rng, (3, 4))
    wl = _param(rng, (4, 2))
    bl = _param(rng, (2,))
    check("linear", lambda: T.linear(xl, wl, bl), [xl, wl, bl])

    logits = _param(rng, (3, 5))
    check("cross_entropy", lambda: T.cross_entropy(logits, [2, 0, 4]), [logits])

    plan = make_plan(12, 16, seed=seed + 1)
    sx = _param(rng, (12,))
    sy = _param(rng, (12,))
    check("compact_bilinear", lambda: compact_bilinear(sx, sy, plan), [sx, sy])
    bx = _param(rng, (3, 12))
    by = _param(rng, (3, 12))
    check("compact_bilinear", lambda: compact_bilinear(bx, by, plan), [bx, by])
    # Two videos of three frames (two pairs each) at five locations.
    frames, sproj, pw = _param(rng, (2, 3, 5, 12)), _param(rng, (16, 1)), _param(rng, (2, 2))
    check("bilinear_logits", lambda: bilinear_logits(frames, sproj, plan), [frames, sproj])
    check("weighted_bilinear", lambda: weighted_bilinear(frames, pw, plan), [frames, pw])

    proj = _param(rng, (6, 1))
    pairs = _param(rng, (2, 3, 6, 2, 2))
    check("temporal_weights", lambda: temporal_weights(pairs, proj), [pairs, proj])

    fw = PairFusionWeights(raw_a=_param(rng, ()), raw_b=_param(rng, ()))
    fa = _param(rng, (2, 8))
    fb = _param(rng, (2, 8))
    check("fuse_pair", lambda: fuse_pair(fa, fb, fw), [fa, fb, fw.raw_a, fw.raw_b])
    check("fuse_pair", lambda: fuse_pair(p5, q5, fw), [p5, q5, fw.raw_a, fw.raw_b])

    # One row or one column: each weight gradient is an outer product.
    x1, w1, b1 = _param(rng, (1, 4)), _param(rng, (4, 2)), _param(rng, (2,))
    check("linear", lambda: T.linear(x1, w1, b1), [x1, w1, b1])
    check("matmul", lambda: T.matmul(x1, w1), [x1, w1])
    a1, c1 = _param(rng, (3, 4)), _param(rng, (4, 1))
    check("matmul", lambda: T.matmul(a1, c1), [a1, c1])
    # A 5x5 kernel on a 2-row image: the taps two rows off miss it entirely.
    xk, wk, bk = grid((2, 3, 2, 4)), grid((4, 3, 5, 5)), grid((4,), 0.5)
    check("conv_relu_pool", lambda: T.conv_relu_pool(xk, wk, bk), [xk, wk, bk])

    # Two shards of two rows each.
    xb, wb, bb = _param(rng, (4, 3)), _param(rng, (3, 2)), _param(rng, (2,))
    shard = lambda xs, ls: attention_weights(T.linear(xs, ls["w"], ls["b"]))
    check("batch_parallel",
          lambda: T.batch_parallel(shard, xb, {"w": wb, "b": bb}, 2), [xb, wb, bb])

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
