"""Dense float tensors with a minimal tape-based reverse-mode autodiff.

Tensors wrap row-major numpy arrays: float32 and float64 arrays as given,
anything else widened to float64. Parameters, activations and gradients are
float64; float32 holds only data read or generated at the file format's
precision, such as a batch of videos, which the first backbone layer's
float64 im2col matrix widens exactly. Every differentiable primitive in this
module computes its forward value eagerly and, when a Tape is active and some
input requires gradients, records a backward closure. ``Tape.backward(out, grad)``
seeds an output's cotangent (1 for a scalar loss) and replays the closures in
exact reverse order of recording, accumulating cotangents into ``Tensor.grad``.

Broadcasting is deliberately limited to weights over leading axes (``scale``)
and per-row biases (``linear``); other mismatched shapes raise ShapeError.
``sigmoid`` and ``softmax`` are formulas on arrays, not primitives: the fused
attention primitives of ``actf.attention`` compute with them.

A backbone layer is one fused primitive, ``conv_relu_pool``: one GEMM on an im2col
matrix with a ones row adds its bias and pool quarter. Its buffers are batch-innermost,
(C, H, W, N), and exact adds pool each 2x2 block, so a non-finite value stays in its
block, forward and backward. ``mix_frames`` maps the frame axis by a
fixed matrix or vector, such as the branch's frame-pair maps, in one matmul.
The weight gradients of ``linear`` and ``matmul`` sum over the batch, and
``_batch_dot`` makes each one BLAS GEMM at every batch size, one row included.

The active tape is per thread. ``batch_parallel`` runs a function on as many
shards of a batch as its caller asks for, each on a worker thread with its own
tape, as one primitive: one per core with numpy's OpenBLAS parked where it can
be, else one at a time, with the same result either way.

On import, glibc's malloc is told to keep freed arrays up to 128 MiB on one
heap and not to trim the heap top, so a training step reuses its memory
instead of faulting it in again (see ``_pin_malloc_thresholds``).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading

import numpy as np

from .errors import InputError, ShapeError


class _ThreadTape(threading.local):
    tape = None  # the Tape active in this thread


_ACTIVE_TAPE = _ThreadTape()


def _pin_malloc_thresholds() -> None:
    """Keep freed arrays up to 128 MiB on the one C heap, and its top untrimmed.

    By default glibc gives each block above an adaptive threshold (128 KiB,
    growing to at most 32 MiB) its own mapping, and returns free memory at
    the heap top beyond twice that threshold to the kernel. Each backward
    then hands its arrays back and the next step faults them in again,
    4 KiB at a time. Both thresholds are fixed: fixing the trim threshold
    alone freezes the mmap threshold at 128 KiB, so every larger array is
    mapped and unmapped on each use. Resident memory then stays at its peak.
    One arena makes the shard threads of ``batch_parallel`` reuse that heap
    rather than each growing its own. A C library without ``mallopt`` is
    left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no process handle, or no mallopt
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold, m_arena_max = -1, -3, -8  # from glibc's <malloc.h>
    mallopt(m_mmap_threshold, 128 << 20)
    mallopt(m_trim_threshold, 1 << 30)
    mallopt(m_arena_max, 1)


_pin_malloc_thresholds()


class Tensor:
    """A dense float32 or float64 array with an optional accumulated-gradient buffer."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data, order="C")
        self.data = data if data.dtype.char in "fd" else data.astype(np.float64)
        self.grad = None
        self.requires_grad = requires_grad

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered record of primitive operations for one reverse sweep.

    Use as a context manager around the forward pass, then call ``backward``
    on a scalar loss, or on any output with its cotangent. A tape records only
    what its own thread runs, and tapes do not nest within a thread.
    """

    def __init__(self):
        self._records = []  # (inputs, output, backward_fn)

    def __enter__(self):
        if _ACTIVE_TAPE.tape is not None:
            raise RuntimeError("a Tape is already active")
        _ACTIVE_TAPE.tape = self
        return self

    def __exit__(self, *exc):
        _ACTIVE_TAPE.tape = None
        return False

    def backward(self, out: Tensor, grad=None) -> None:
        """Replay the records in reverse from ``grad``, the cotangent of ``out``:
        an array shaped like it, seeded as given (no copy, no cast). Only a 0-d
        loss may leave it out, and is seeded with 1. Each record is popped as it
        is swept, dropping its closure and its output's cotangent, so memory
        falls as the sweep goes; the tape is spent after."""
        if grad is None:
            if out.data.shape != ():
                raise ShapeError(f"backward requires a scalar loss, got shape {out.data.shape}")
            grad = np.ones((), dtype=np.float64)
        elif np.shape(grad) != out.data.shape:
            raise ShapeError(f"backward: cotangent {np.shape(grad)} for output {out.data.shape}")
        out.grad = grad
        while self._records:
            inputs, output, fn = self._records.pop()
            g_out, output.grad = output.grad, None
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


def active_tape():
    """The Tape active in this thread, or None."""
    return _ACTIVE_TAPE.tape


def _recording(inputs) -> bool:
    """Whether an op on ``inputs`` will be recorded: a tape is active and some
    input requires a gradient. A primitive may skip state only its backward uses."""
    return _ACTIVE_TAPE.tape is not None and any(t.requires_grad for t in inputs)


def apply_primitive(data, inputs, backward) -> Tensor:
    """Create an op output, recording ``backward`` on the active tape.

    ``backward(out_grad)`` must return one gradient array (or None) per input,
    aligned with ``inputs`` and shaped like it. It must never write into
    ``out_grad``: a cotangent may be shared with other tensors
    (``concat_channels`` hands its inputs views of it), and becomes an input's
    ``.grad`` as is.
    The tape calls ``backward`` at most once, so it may drop state as it goes.
    Exposed so other modules (e.g. the sketch map) can define primitives with
    custom backward rules.
    """
    out = Tensor(data, requires_grad=any(t.requires_grad for t in inputs))
    tape = _ACTIVE_TAPE.tape
    if tape is not None and out.requires_grad:
        tape._records.append((tuple(inputs), out, backward))
    return out


# ---------------------------------------------------------------------------
# elementwise


def scale(x: Tensor, s: Tensor) -> Tensor:
    """Multiply x by a weight Tensor shaped like x's leading axes, so that a 0-d
    weight scales all of x and a (B, P) one each x[i, j]."""
    xd, k = x.data, s.data.ndim
    if s.data.shape != xd.shape[:k]:
        raise ShapeError(f"scale: weight {s.data.shape} does not match leading axes of {xd.shape}")
    sd, rest = s.data[(...,) + (None,) * (xd.ndim - k)], tuple(range(k, xd.ndim))
    return apply_primitive(xd * sd, (x, s), lambda g: (g * sd, np.asarray(np.sum(g * xd, axis=rest))))


def relu(x: Tensor) -> Tensor:
    """max(x, 0) elementwise; a NaN input stays NaN, with gradient 0 there."""
    mask = x.data > 0 if _recording((x,)) else None
    return apply_primitive(np.maximum(x.data, 0.0), (x,), lambda g: (g * mask,))


# ---------------------------------------------------------------------------
# formulas on arrays, shared by the attention primitives


def sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) elementwise, as exp(-log(1 + e^-x)) in one expression, with
    no mask: logaddexp never overflows, so both tails stay finite, and sigmoid(0) = 0.5."""
    return np.exp(-np.logaddexp(0.0, -x))


def softmax(x: np.ndarray) -> np.ndarray:
    """Max-shifted softmax over the last axis (each row of a matrix separately).
    The array methods skip ``np.max``/``np.sum``'s dispatch: on the attention
    sites' few-element rows that dispatch costs more than the arithmetic."""
    z = np.exp(x - x.max(axis=-1, keepdims=True))
    return z / z.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# linear algebra


def _batch_dot(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """aᵀg over the batch rows as one BLAS GEMM (at one row ``@`` loops, ``np.dot`` zero-fills
    first): a zero row appended to a and g adds 0·0, so one row is the exact outer product."""
    az, gz = (np.zeros((len(m) + 1, m.shape[1]), m.dtype) for m in (a, g))
    az[:-1], gz[:-1] = a, g
    return az.T @ gz


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: incompatible shapes {a.data.shape} and {b.data.shape}")
    ad, bd = a.data, b.data
    return apply_primitive(ad @ bd, (a, b), lambda g: (g @ bd.T, _batch_dot(ad, g)))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map of each row: x (N, K) @ w (K, M) + b, with b of shape (M,)."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"linear: incompatible shapes {x.data.shape} and {w.data.shape}")
    if b.data.shape != w.data.shape[1:]:
        raise ShapeError(f"linear: bias shape {b.data.shape} does not match {w.data.shape}")
    xd, wd = x.data, w.data

    def backward(g):
        return g @ wd.T, _batch_dot(xd, g), g.sum(axis=0)

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


def channel_axis(a: Tensor, b: Tensor, opname: str) -> int:
    """The channel axis along which a and b concatenate: axis -3 of feature maps
    (..., C, H, W), the last axis of vectors (C,) and rows of vectors (N, C).
    Raises ShapeError unless every other extent agrees."""
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"{opname}: rank mismatch {a.data.shape} vs {b.data.shape}")
    axis = -1 if a.data.ndim <= 2 else -3
    rest_a, rest_b = list(a.data.shape), list(b.data.shape)
    del rest_a[axis], rest_b[axis]
    if rest_a != rest_b:
        raise ShapeError(f"{opname}: non-channel extents differ: {a.data.shape} vs {b.data.shape}")
    return axis


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate a and b along their ``channel_axis``."""
    axis = channel_axis(a, b, "concat_channels")
    ca = a.data.shape[axis]
    return apply_primitive(np.concatenate([a.data, b.data], axis=axis), (a, b),
                           lambda g: tuple(np.split(g, [ca], axis=axis)))


# ---------------------------------------------------------------------------
# pooling and the backbone layer


def mean(x: Tensor, axes) -> Tensor:
    """Mean over the given axes, which are dropped from the shape. One einsum sums
    them in place, with no copy: on small arrays ``np.mean``'s wrapper costs more."""
    axes = tuple(sorted(a % x.data.ndim for a in axes))
    xshape, rest = x.data.shape, [i for i in range(x.data.ndim) if i not in axes]
    n = math.prod(xshape[a] for a in axes)
    kept = tuple(1 if i in axes else e for i, e in enumerate(xshape))

    def backward(g):
        return (np.broadcast_to(g.reshape(kept) / n, xshape),)

    return apply_primitive(np.einsum(x.data, range(x.data.ndim), rest) / n, (x,), backward)


def mix_frames(x: Tensor, w: np.ndarray) -> Tensor:
    """x (B, t, ...) mapped over its frame axis by a fixed array w, applied in
    x's dtype: a (p, t) matrix gives (B, p, ...), a (t,) vector drops the axis,
    (B, ...). One matmul, and its transpose backward. As in any product, a zero
    weight on a non-finite frame gives NaN (0·inf)."""
    xd = x.data
    if xd.ndim < 2 or w.ndim not in (1, 2) or w.shape[-1] != xd.shape[1]:
        raise ShapeError(f"mix_frames: weights {w.shape} do not map axis 1 of {xd.shape}")
    b, t, rest = xd.shape[0], xd.shape[1], xd.shape[2:]
    r = math.prod(rest)
    w = w.astype(xd.dtype, copy=False)
    out = np.matmul(w, xd.reshape(b, t, r)).reshape((b,) + w.shape[:-1] + rest)

    def backward(g):
        g = g.reshape(b, -1, r)
        # A vector's outer product as a broadcast: at (8, 8, 64) it beats matmul.
        gx = g * w[:, None] if w.ndim == 1 else np.matmul(w.T, g)
        return (gx.reshape(xd.shape),)

    return apply_primitive(out, (x,), backward)


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

    The layer runs batch-innermost, in (C, H, W, N) order, so each copy and add
    moves runs of about W·N values. im2col copies x once to that order, then
    tap by tap, unpadded, into rows (c, i, j) plus a row of ones; one GEMM with
    [w | b] / 4 gives relu(y)/4 = relu(y/4). Three exact adds pool each 2x2
    block, and one product spreads a cell's cotangent over its block through
    the ReLU mask, so a NaN or inf stays in its block both ways. col2im is unpadded.
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
    xc = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))
    cols = np.empty((Cin * kh * kw + 1, H * W * N))
    taps = cols[:-1].reshape(Cin, kh, kw, H, W, N)
    for i, j, (oh, ow), (ih, iw) in _taps(kh, kw, H, W):
        tap = taps[:, i, j]
        tap[:, oh, ow] = xc[:, ih, iw]
        # Zero only the border strips the tap leaves unwritten.
        tap[:, :oh.start] = tap[:, oh.stop:] = 0.0
        tap[:, oh, :ow.start] = tap[:, oh, ow.stop:] = 0.0
    del xc
    cols[-1] = 1.0
    wk = w.data.reshape(Cout, -1)
    y = np.hstack((wk, b.data[:, None])) / 4 @ cols
    mask = y > 0 if _recording((x, w, b)) else None
    np.maximum(y, 0.0, out=y)
    y = y.reshape(Cout, H // 2, 2, W // 2, 2, N)
    pooled = y[:, :, 0, :, 0] + y[:, :, 0, :, 1]
    pooled += y[:, :, 1, :, 0]
    pooled += y[:, :, 1, :, 1]
    out = np.empty((N, Cout, H // 2, W // 2))
    out.transpose(1, 2, 3, 0)[...] = pooled
    need_gx = x.requires_grad

    def backward(g):
        # The tape runs each backward once: the mask and im2col are freed as soon
        # as they are used, so col2im's buffer does not sit on top of them.
        nonlocal cols, mask
        gy = np.multiply(mask.reshape(Cout, H // 2, 2, W // 2, 2, N),
                         g.transpose(1, 2, 3, 0)[:, :, None, :, None]).reshape(Cout, -1)
        mask = None
        gwb = (cols @ gy.T).T / 4  # OpenBLAS: about twice as fast as gy @ cols.T for 8 rows
        cols = None
        gw, gb = gwb[:, :-1].reshape(w.data.shape), gwb[:, -1]
        if not need_gx:
            return None, gw, gb
        gcols = (wk.T / 4 @ gy).reshape(Cin, kh, kw, H, W, N)
        del gy
        gx = gcols[:, kh // 2, kw // 2].copy()
        for i, j, (oh, ow), (ih, iw) in _taps(kh, kw, H, W):
            if (i, j) != (kh // 2, kw // 2):
                gx[:, ih, iw] += gcols[:, i, j, oh, ow]
        return gx.transpose(3, 0, 1, 2), gw, gb

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


# ---------------------------------------------------------------------------
# data parallelism


class _OpenBlas:
    """numpy's OpenBLAS, through the three calls that park its thread pool."""

    def __init__(self, get_num_threads, set_num_threads, shutdown):
        get_num_threads.argtypes, get_num_threads.restype = (), ctypes.c_int
        set_num_threads.argtypes, set_num_threads.restype = (ctypes.c_int,), None
        shutdown.argtypes, shutdown.restype = (), None
        self.get_num_threads, self.set_num_threads, self._shutdown = (
            get_num_threads, set_num_threads, shutdown)
        # One parked region at a time: two would each restore the other's count.
        self._lock = threading.Lock()

    @contextlib.contextmanager
    def parked(self):
        """OpenBLAS at one thread with its idle pool shut down; the thread count
        is restored after, and the pool restarts on the next threaded call."""
        with self._lock:
            threads = self.get_num_threads()
            self.set_num_threads(1)
            self._shutdown()
            try:
                yield
            finally:
                self.set_num_threads(threads)


def _find_openblas():
    """The OpenBLAS that this process has loaded, as an ``_OpenBlas``, or None.

    Linux lists it in /proc/self/maps. numpy's wheels name its calls
    ``scipy_openblas_*64_``; a system OpenBLAS names them ``openblas_*``."""
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in f
                            if "openblas" in line.rsplit("/", 1)[-1]})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "64_"), ("openblas_", "")):
            try:
                return _OpenBlas(getattr(lib, f"{prefix}get_num_threads{suffix}"),
                                 getattr(lib, f"{prefix}set_num_threads{suffix}"),
                                 lib.blas_thread_shutdown_)
            except AttributeError:
                continue
    return None


_SHARDING = None
_SHARDING_LOCK = threading.Lock()


def _sharding():
    """The OpenBLAS to park, or None, and the pool that runs shards: one worker
    per core where OpenBLAS can be parked, else one worker, so the shards run
    in order. Both are looked up by the first batch that shards."""
    global _SHARDING
    with _SHARDING_LOCK:
        if _SHARDING is None:
            from concurrent.futures import ThreadPoolExecutor

            blas = _find_openblas()
            cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
            _SHARDING = (blas, ThreadPoolExecutor(cores if blas else 1,
                                                  thread_name_prefix="actf-shard"))
        return _SHARDING


def _run_shards(jobs):
    """Each job on the shard pool under the caller's numpy error state, with
    OpenBLAS parked where it is found: their results in order, or the first
    failed job's exception once all have ended."""
    from concurrent.futures import wait

    blas, pool = _sharding()
    errs = np.geterr()
    with blas.parked() if blas else contextlib.nullcontext():
        futures = [pool.submit(np.errstate(**errs)(job)) for job in jobs]
        wait(futures)
    return [f.result() for f in futures]


def batch_parallel(fn, x: Tensor, leaves: dict, shards: int) -> Tensor:
    """``fn(x, leaves)`` for a batch x (B, ...) and the dict of tensors ``fn`` reads,
    run on ``shards`` (at most B) contiguous shards of the batch as one record.

    Each shard runs on a ``_sharding`` pool thread under the caller's numpy
    error state, with its own tape and fresh leaf Tensors over the same arrays.
    ``fn`` returns one row per batch entry; the output is the shards' rows in
    order, x's gradient their gradients in order, and a leaf's gradient their
    sum in shard order. So the shard count decides the result, and the core
    count only how many shards run at once. With one shard, ``fn(x, leaves)``
    runs on the caller's thread and tape."""
    n = x.data.shape[0]
    if shards < 2:
        return fn(x, leaves)
    spans = [(n * i // shards, n * (i + 1) // shards) for i in range(shards)]
    inputs = (x, *leaves.values())
    record = _recording(inputs)

    def run(lo, hi):
        xs = Tensor(x.data[lo:hi], x.requires_grad)
        ls = {k: Tensor(v.data, v.requires_grad) for k, v in leaves.items()}
        with Tape() if record else contextlib.nullcontext() as tape:
            return fn(xs, ls), tape, (xs, *ls.values())

    ran = _run_shards([functools.partial(run, *s) for s in spans])

    def backward(g):
        nonlocal ran
        _run_shards([functools.partial(tape.backward, out, g[lo:hi])
                     for (out, tape, _), (lo, hi) in zip(ran, spans)])
        grads = list(zip(*([t.grad for t in shard] for _, _, shard in ran)))
        ran = None
        gx = np.zeros(x.data.shape) if x.requires_grad else None
        for (lo, hi), part in zip(spans, grads[0]):
            if part is not None:
                gx[lo:hi] = part
        return (gx, *(_sum_in_order([p for p in parts if p is not None]) for parts in grads[1:]))

    return apply_primitive(np.concatenate([out.data for out, _, _ in ran]), inputs, backward)


def _sum_in_order(parts):
    return sum(parts[1:], parts[0]) if parts else None
