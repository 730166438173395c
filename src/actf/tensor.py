"""Dense float64 tensors with a minimal tape-based reverse-mode autodiff.

Tensors wrap row-major numpy arrays. Every differentiable primitive in this
module computes its forward value eagerly and, when a Tape is active and some
input requires gradients, records a backward closure. ``Tape.backward`` replays
the closures in exact reverse order of recording, accumulating cotangents into
``Tensor.grad``.

Broadcasting is deliberately limited to weights over leading axes (``scale``)
and per-row biases (``linear``); other mismatched shapes raise ShapeError.

A backbone layer is one fused primitive, ``conv_relu_pool``: one GEMM on an im2col
matrix with a ones row adds its bias and pool quarter. One 0/1 pooling matrix serves
both ways: a GEMM with it pools, and one with its transpose upsamples the cotangent.
The backward products of ``linear`` and ``matmul`` use ``np.dot``: at one row
they are outer products, which ``@`` computes in its own loop and ``np.dot``
through BLAS.

On import, glibc's malloc is told to keep freed arrays up to 128 MiB on its
heap and not to trim the heap top, so a training step reuses its memory
instead of faulting it in again (see ``_pin_malloc_thresholds``).
"""

from __future__ import annotations

import ctypes

import numpy as np

from .errors import InputError, ShapeError

_ACTIVE_TAPE = None


def _pin_malloc_thresholds() -> None:
    """Keep freed arrays up to 128 MiB on the C heap, and its top untrimmed.

    By default glibc gives each block above an adaptive threshold (128 KiB,
    growing to at most 32 MiB) its own mapping, and returns free memory at
    the heap top beyond twice that threshold to the kernel. Each backward
    then hands its arrays back and the next step faults them in again,
    4 KiB at a time. Both thresholds are fixed: fixing the trim threshold
    alone freezes the mmap threshold at 128 KiB, so every larger array is
    mapped and unmapped on each use. Resident memory then stays at its peak.
    A C library without ``mallopt`` is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # from glibc's <malloc.h>
    mallopt(m_mmap_threshold, 128 << 20)
    mallopt(m_trim_threshold, 1 << 30)


_pin_malloc_thresholds()


class Tensor:
    """A dense f64 array with an optional accumulated-gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64, order="C")
        self.grad = None
        self.requires_grad = requires_grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one reverse sweep.

    Use as a context manager around the forward pass, then call ``backward``
    on the scalar result. Tapes do not nest.
    """

    def __init__(self):
        self._records = []  # (inputs, output, backward_fn)

    def __enter__(self):
        global _ACTIVE_TAPE
        if _ACTIVE_TAPE is not None:
            raise RuntimeError("a Tape is already active")
        _ACTIVE_TAPE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE_TAPE
        _ACTIVE_TAPE = None
        return False

    def backward(self, loss: Tensor) -> None:
        if loss.data.shape != ():
            raise ShapeError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        loss.grad = np.ones((), dtype=np.float64)
        # Pop each record as it is swept, dropping its closure and its output's
        # cotangent, so memory falls as the sweep goes; the tape is spent after.
        while self._records:
            inputs, out, fn = self._records.pop()
            g_out, out.grad = out.grad, None
            if g_out is None:
                continue
            grads = fn(g_out)
            for t, g in zip(inputs, grads):
                if g is None or not t.requires_grad:
                    continue
                if g.shape != t.data.shape:
                    raise ShapeError(f"backward: gradient of shape {g.shape} for input {t.data.shape}")
                # The first cotangent is kept as is; a later one makes a new sum.
                t.grad = g if t.grad is None else t.grad + g


def _recording(inputs) -> bool:
    """Whether an op on ``inputs`` will be recorded: a tape is active and some
    input requires a gradient. A primitive may skip state only its backward uses."""
    return _ACTIVE_TAPE is not None and any(t.requires_grad for t in inputs)


def apply_primitive(data, inputs, backward) -> Tensor:
    """Create an op output, recording ``backward`` on the active tape.

    ``backward(out_grad)`` must return one gradient array (or None) per input,
    aligned with ``inputs`` and shaped like it. It must never write into
    ``out_grad``: a cotangent may be shared with other tensors (``add`` hands
    the same array to both inputs), and becomes an input's ``.grad`` as is.
    The tape calls ``backward`` at most once, so it may drop state as it goes.
    Exposed so other modules (e.g. the sketch map) can define primitives with
    custom backward rules.
    """
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    if _recording(inputs):
        _ACTIVE_TAPE._records.append((tuple(inputs), out, backward))
    return out


def _require_same_shape(a: Tensor, b: Tensor, opname: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# elementwise


def add(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "add")
    return apply_primitive(a.data + b.data, (a, b), lambda g: (g, g))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _require_same_shape(a, b, "sub")
    return apply_primitive(a.data - b.data, (a, b), lambda g: (g, -g))


def scale(x: Tensor, s) -> Tensor:
    """Multiply x by a weight: a float, or a Tensor shaped like x's leading
    axes, so that a 0-d weight scales all of x and a (B, P) one each x[i, j]."""
    if not isinstance(s, Tensor):
        sv = float(s)
        return apply_primitive(x.data * sv, (x,), lambda g: (g * sv,))
    xd, k = x.data, s.data.ndim
    if s.data.shape != xd.shape[:k]:
        raise ShapeError(f"scale: weight {s.data.shape} does not match leading axes of {xd.shape}")
    sd, rest = s.data[(...,) + (None,) * (xd.ndim - k)], tuple(range(k, xd.ndim))
    return apply_primitive(xd * sd, (x, s), lambda g: (g * sd, np.asarray(np.sum(g * xd, axis=rest))))


def relu(x: Tensor) -> Tensor:
    """max(x, 0) elementwise; a NaN input stays NaN, with gradient 0 there."""
    mask = x.data > 0 if _recording((x,)) else None
    return apply_primitive(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    # Stable in both tails: exp only ever sees non-positive arguments.
    xd = x.data
    y = np.empty_like(xd)
    pos = xd >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-xd[pos]))
    e = np.exp(xd[~pos])
    y[~pos] = e / (1.0 + e)
    return apply_primitive(y, (x,), lambda g: (g * y * (1.0 - y),))


def softmax(x: Tensor) -> Tensor:
    """Max-shifted softmax over the last axis (each row of a matrix separately)."""
    if x.data.ndim not in (1, 2) or x.data.shape[-1] < 1:
        raise ShapeError(f"softmax: expected non-empty rows, got shape {x.data.shape}")
    z = np.exp(x.data - np.max(x.data, axis=-1, keepdims=True))
    y = z / np.sum(z, axis=-1, keepdims=True)
    return apply_primitive(y, (x,), lambda g: (y * (g - np.sum(g * y, axis=-1, keepdims=True)),))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data
    # np.dot, not @: @ runs an outer (inner size 1) product outside BLAS.
    return apply_primitive(ad @ bd, (a, b), lambda g: (np.dot(g, bd.T), np.dot(ad.T, g)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of each row: x (N, K) @ w (K, M) + b, with b of shape (M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear: bias shape {b.data.shape} does not match {w.data.shape}")
    xd, wd = x.data, w.data

    def backward(g):
        # np.dot, not @: @ runs an outer (inner size 1) product outside BLAS.
        return g @ wd.T, np.dot(xd.T, g), g.sum(axis=0)

    return apply_primitive(xd @ wd + b.data, (x, w, b), backward)


# ---------------------------------------------------------------------------
# shape manipulation


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)
    xshape = x.data.shape
    return apply_primitive(x.data.reshape(shape), (x,), lambda g: (g.reshape(xshape),))


def transpose(x: Tensor, axes) -> Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))
    return apply_primitive(np.transpose(x.data, axes), (x,), lambda g: (np.transpose(g, inv),))


def frame_slice(x: Tensor, start: int, stop: int) -> Tensor:
    """Contiguous slice [start:stop) along axis 1, the frame axis of (B, t, ...) tensors."""
    if x.data.ndim < 2 or not 0 <= start < stop <= x.data.shape[1]:
        raise ShapeError(f"frame_slice: [{start}:{stop}) invalid for axis 1 of {x.data.shape}")
    xshape = x.data.shape

    def backward(g):
        gx = np.zeros(xshape)
        gx[:, start:stop] = g
        return (gx,)

    return apply_primitive(x.data[:, start:stop], (x,), backward)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate along the channel axis: axis -3 of feature maps (..., C, H, W),
    the last axis of vectors (C,) and rows of vectors (N, C)."""
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"concat_channels: rank mismatch {a.data.shape} vs {b.data.shape}")
    axis = -1 if a.data.ndim <= 2 else -3
    rest_a, rest_b = list(a.data.shape), list(b.data.shape)
    del rest_a[axis], rest_b[axis]
    if rest_a != rest_b:
        raise ShapeError(
            f"concat_channels: non-channel extents differ: {a.data.shape} vs {b.data.shape}"
        )
    ca = a.data.shape[axis]
    return apply_primitive(np.concatenate([a.data, b.data], axis=axis), (a, b),
                           lambda g: tuple(np.split(g, [ca], axis=axis)))


# ---------------------------------------------------------------------------
# pooling and the backbone layer


def mean(x: Tensor, axes) -> Tensor:
    """Mean over the given axes, which are dropped from the shape."""
    axes = tuple(sorted(a % x.data.ndim for a in axes))
    xshape = x.data.shape
    n = int(np.prod([xshape[a] for a in axes]))
    kept = tuple(1 if i in axes else e for i, e in enumerate(xshape))

    def backward(g):
        return (np.broadcast_to(g.reshape(kept) / n, xshape),)

    return apply_primitive(x.data.mean(axis=axes), (x,), backward)


def _taps(kh: int, kw: int, H: int, W: int):
    """(i, j, out, src) per tap of a same-padded kernel: the (rows, cols) it writes
    and reads, clipped to the H x W image (both empty where the tap misses it)."""
    def clip(d, n):
        lo, hi = max(0, -d), max(0, -d, n - max(0, d))
        return slice(lo, hi), slice(lo + d, hi + d)
    return [(i, j, *zip(clip(i - kh // 2, H), clip(j - kw // 2, W)))
            for i in range(kh) for j in range(kw)]


def conv_relu_pool(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """One backbone layer: 2x2 mean pool of relu(conv(x, w) + b), as one record.

    x: (N, C_in, H, W) with even H, W; w: (C_out, C_in, kh, kw) with odd kh,
    kw, applied with 'same' zero padding and stride 1; b: (C_out,). Returns
    (N, C_out, H/2, W/2). A NaN pre-activation stays NaN, with gradient 0.

    im2col copies x unpadded, tap by tap, into rows (c, i, j) plus a row of ones;
    one GEMM with [w | b] / 4 then gives relu(y)/4 = relu(y/4). A GEMM with a
    (2W, W/2) 0/1 matrix pools it, and one with its transpose / 4 upsamples the
    cotangent. BLAS spreads a NaN or inf along its whole row (0·inf), so a layer
    whose pooled sum is not finite pools again by exact pair adds; col2im is unpadded.
    """
    if x.data.ndim != 4 or w.data.ndim != 4 or b.data.ndim != 1:
        raise ShapeError(
            f"conv_relu_pool: bad ranks x={x.data.shape} w={w.data.shape} b={b.data.shape}"
        )
    N, Cin, H, W = x.data.shape
    Cout, Cin_w, kh, kw = w.data.shape
    if (Cin != Cin_w or b.data.shape[0] != Cout or kh % 2 == 0 or kw % 2 == 0
            or H % 2 or W % 2):
        raise ShapeError(
            f"conv_relu_pool: incompatible shapes x={x.data.shape} w={w.data.shape} b={b.data.shape}"
        )
    cols = np.empty((Cin * kh * kw + 1, N * H * W))
    taps, xc = cols[:-1].reshape(Cin, kh, kw, N, H, W), x.data.transpose(1, 0, 2, 3)
    for i, j, (oh, ow), (ih, iw) in _taps(kh, kw, H, W):
        tap = taps[:, i, j]
        tap[:, :, oh, ow] = xc[:, :, ih, iw]
        # Zero only the border strips the tap leaves unwritten.
        tap[:, :, :oh.start] = tap[:, :, oh.stop:] = 0.0
        tap[:, :, oh, :ow.start] = tap[:, :, oh, ow.stop:] = 0.0
    cols[-1] = 1.0
    wk = w.data.reshape(Cout, -1)
    y = np.hstack((wk, b.data[:, None])) / 4 @ cols
    mask = y > 0 if _recording((x, w, b)) else None
    np.maximum(y, 0.0, out=y)
    # Each row of y.reshape(-1, 2W) is image rows 2r, 2r + 1 of one (c, n): the
    # pool sums it into W/2 cells, and the backward spreads W/2 cells over it.
    pool = np.tile(np.kron(np.eye(W // 2), [[1.0], [1.0]]), (2, 1))
    with np.errstate(invalid="ignore"):  # 0·inf, redone exactly below
        pooled = y.reshape(-1, 2 * W) @ pool
    if not np.isfinite(pooled.sum()):
        # Sum row pairs, then column pairs: a NaN or inf stays in its 2x2 block.
        y = y.reshape(Cout, N, H // 2, 2, W)
        y = (y[:, :, :, 0] + y[:, :, :, 1]).reshape(Cout, N, H // 2, W // 2, 2)
        pooled = y[..., 0] + y[..., 1]
    out = np.empty((N, Cout, H // 2, W // 2))
    out.transpose(1, 0, 2, 3)[...] = pooled.reshape(Cout, N, H // 2, W // 2)
    need_gx = x.requires_grad

    def backward(g):
        # The tape runs each backward once: the mask and im2col are freed as soon
        # as they are used, so col2im's buffer does not sit on top of them.
        nonlocal cols, mask
        gy = (g.transpose(1, 0, 2, 3).reshape(-1, W // 2) @ (pool.T / 4)).reshape(Cout, -1)
        gy *= mask
        mask = None
        gwb = (cols @ gy.T).T  # OpenBLAS: about twice as fast as gy @ cols.T for 8 rows
        cols = None
        gw, gb = gwb[:, :-1].reshape(w.data.shape), gwb[:, -1]
        if not need_gx:
            return None, gw, gb
        gcols = (wk.T @ gy).reshape(Cin, kh, kw, N, H, W)
        del gy
        gx = gcols[:, kh // 2, kw // 2].copy()
        for i, j, (oh, ow), (ih, iw) in _taps(kh, kw, H, W):
            if (i, j) != (kh // 2, kw // 2):
                gx[:, :, ih, iw] += gcols[:, i, j, :, oh, ow]
        return gx.transpose(1, 0, 2, 3), gw, gb

    return apply_primitive(out, (x, w, b), backward)


# ---------------------------------------------------------------------------
# classification loss


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean softmax cross-entropy of logit rows (N, classes) against N class indices."""
    labels = np.asarray(labels)
    if logits.data.ndim != 2 or labels.shape != logits.data.shape[:1]:
        raise ShapeError(
            f"cross_entropy: logits {logits.data.shape} do not match labels {labels.shape}"
        )
    n, k = logits.data.shape
    if labels.dtype.kind not in "iu" or np.any((labels < 0) | (labels >= k)):
        raise InputError(f"cross_entropy: labels {labels} are not class indices in [0, {k})")
    rows = np.arange(n)
    m = np.max(logits.data, axis=1, keepdims=True)
    z = np.exp(logits.data - m)
    s = np.sum(z, axis=1, keepdims=True)
    loss = np.mean(m[:, 0] + np.log(s[:, 0]) - logits.data[rows, labels])

    def backward(g):
        gl = z / s
        gl[rows, labels] -= 1.0
        return (gl * (g / n),)

    return apply_primitive(np.asarray(loss), (logits,), backward)
