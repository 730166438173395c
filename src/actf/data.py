"""Synthetic sequence-classification tasks and a bit-exact tensor file format.

Tasks are desk-scale stand-ins for video benchmarks: a bright soft blob moving
inside the frame. The ``direction4`` task is built so that paired classes
(left/right, up/down) contain exactly the same frames in reversed order, i.e.
the class signal is purely temporal ordering.

Generation is keyed by the Philox counter-based PRNG so every sample is
reproducible from (seed, class group, sample index) on any platform.
"""

from __future__ import annotations

import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, FormatError
from .tensor import Tensor
from ._io import atomic_write_bytes, atomic_write_text

_BLOB = 7          # blob side length in pixels
_SLOW, _FAST = 1, 3
# Largest noise standard deviation: ten times the blobs' peak intensity of 1.
# Far beyond it, samples and the backbone's activations overflow.
MAX_NOISE = 10.0


@dataclass(frozen=True)
class SyntheticTask:
    kind: str
    frames: int = 8
    height: int = 32
    width: int = 32
    per_class: int = 50
    noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ConfigError(f"unknown task kind {self.kind!r}; expected one of {sorted(TASK_KINDS)}")
        if self.frames < 2:
            raise ConfigError("SyntheticTask: need at least 2 frames")
        if self.per_class < 1:
            raise ConfigError("SyntheticTask: per_class must be >= 1")
        if not 0 <= self.noise <= MAX_NOISE:
            raise ConfigError(
                f"SyntheticTask: noise must be >= 0 and <= {MAX_NOISE:g}, got {self.noise!r}")

    @property
    def n_classes(self) -> int:
        return TASK_KINDS[self.kind][0]


def _rng(seed: int, group: int, index: int) -> np.random.Generator:
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF),
                    np.uint64((group << 32) | index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _blob_profile():
    g = np.exp(-0.5 * ((np.arange(_BLOB) - (_BLOB - 1) / 2) / (_BLOB / 4)) ** 2)
    return np.outer(g, g)


_PROFILE = _blob_profile()


def _stamp(frame: np.ndarray, y: int, x: int, color) -> None:
    patch = _PROFILE[None, :, :] * np.asarray(color)[:, None, None]
    frame[:, y:y + _BLOB, x:x + _BLOB] = np.maximum(frame[:, y:y + _BLOB, x:x + _BLOB], patch)


def _check_fits(task: SyntheticTask, span: int) -> None:
    if _BLOB + span > min(task.height, task.width):
        raise ConfigError(
            f"blob ({_BLOB}px) plus trajectory span ({span}px) exceeds the "
            f"{task.height}x{task.width} frame; the smallest side that fits is "
            f"{_BLOB + span}px (set 'height' and 'width' through --config)"
        )


def _trajectory_video(task: SyntheticTask, rng, horizontal: bool, step: int, color):
    """Frames of a blob translating along one axis; forward order."""
    span = step * (task.frames - 1)
    _check_fits(task, span)
    if horizontal:
        y0 = int(rng.integers(0, task.height - _BLOB + 1))
        x0 = int(rng.integers(0, task.width - _BLOB - span + 1))
        pos = [(y0, x0 + step * k) for k in range(task.frames)]
    else:
        x0 = int(rng.integers(0, task.width - _BLOB + 1))
        y0 = int(rng.integers(0, task.height - _BLOB - span + 1))
        pos = [(y0 + step * k, x0) for k in range(task.frames)]
    video = np.zeros((task.frames, 3, task.height, task.width))
    for k, (y, x) in enumerate(pos):
        _stamp(video[k], y, x, color)
    return video

_MOTION_COLOR = (1.0, 0.8, 0.6)
_APPEARANCE_COLORS = [(1.0, 0.15, 0.15), (0.15, 1.0, 0.15), (0.15, 0.15, 1.0), (1.0, 1.0, 0.15)]


def _direction_video(task, label, index, step=2):
    # Classes: 0 right, 1 left, 2 down, 3 up. Left/up are exact temporal
    # reversals of right/down built from the same per-index draw, so paired
    # classes share identical per-frame multisets.
    horizontal = label < 2
    group = 0 if horizontal else 1
    base = _trajectory_video(task, _rng(task.seed, group, index), horizontal,
                             step, _MOTION_COLOR)
    return base if label in (0, 2) else base[::-1].copy()


def _speed_video(task, label, index):
    rng = _rng(task.seed, 10 + label, index)
    step = _SLOW if label == 0 else _FAST
    horizontal = bool(rng.integers(0, 2))
    reverse = bool(rng.integers(0, 2))
    v = _trajectory_video(task, rng, horizontal, step, _MOTION_COLOR)
    return v[::-1].copy() if reverse else v


def _appearance_video(task, label, index):
    rng = _rng(task.seed, 20 + label, index)
    _check_fits(task, 0)
    y = int(rng.integers(0, task.height - _BLOB + 1))
    x = int(rng.integers(0, task.width - _BLOB + 1))
    video = np.zeros((task.frames, 3, task.height, task.width))
    for k in range(task.frames):
        _stamp(video[k], y, x, _APPEARANCE_COLORS[label])
    return video


def _mixed_video(task, label, index):
    # label = direction * 2 + (0 slow | 1 fast)
    direction, fast = divmod(label, 2)
    sub = SyntheticTask(kind="direction4", frames=task.frames, height=task.height,
                        width=task.width, per_class=task.per_class, noise=0.0,
                        seed=task.seed + 7919 * (1 + fast))
    return _direction_video(sub, direction, index, step=_FAST if fast else _SLOW)


# Each task kind: (number of classes, maker of one class's video).
TASK_KINDS = {
    "direction4": (4, _direction_video),
    "speed2": (2, _speed_video),
    "appearance4": (4, _appearance_video),
    "mixed8": (8, _mixed_video),
}


def generate(task: SyntheticTask):
    """All samples of the task as (video Tensor, label) pairs, class-balanced."""
    make = TASK_KINDS[task.kind][1]
    samples = []
    for index in range(task.per_class):
        for label in range(task.n_classes):
            video = make(task, label, index)
            if task.noise > 0:
                noise_rng = _rng(task.seed, 1000 + label, index)
                video = video + task.noise * noise_rng.standard_normal(video.shape)
            samples.append((Tensor(video), label))
    return samples


# ---------------------------------------------------------------------------
# tensor file format

_MAGIC = b"ACTF"
_VERSION = 1


def tensor_to_bytes(x: Tensor) -> bytes:
    """Serialize: magic 'ACTF', u16 version, u16 rank, u32 dims, f32 payload;
    all little-endian, row-major. Scalars are stored as shape (1,)."""
    dims = x.data.shape or (1,)
    if any(d < 1 for d in dims):
        raise FormatError(f"cannot serialize tensor with zero extent: {dims}")
    header = (_MAGIC
              + np.uint16(_VERSION).tobytes()
              + np.uint16(len(dims)).tobytes()
              + np.asarray(dims, dtype="<u4").tobytes())
    payload = np.ascontiguousarray(x.data.reshape(dims), dtype="<f4").tobytes()
    return header + payload


def tensor_from_bytes(raw: bytes, offset: int = 0):
    """Parse one serialized tensor, returning (Tensor, offset past it)."""
    base = offset
    if raw[offset:offset + 4] != _MAGIC:
        raise FormatError(f"at byte {base}: bad magic {raw[offset:offset + 4]!r}")
    if len(raw) < offset + 8:
        raise FormatError(f"at byte {base}: truncated header, need 8 bytes, have {len(raw) - base}")
    version = int(np.frombuffer(raw, dtype="<u2", count=1, offset=offset + 4)[0])
    if version != _VERSION:
        raise FormatError(f"at byte {base + 4}: unsupported version {version}")
    rank = int(np.frombuffer(raw, dtype="<u2", count=1, offset=offset + 6)[0])
    if rank < 1:
        raise FormatError(f"at byte {base + 6}: empty dims (rank 0) rejected")
    offset += 8
    if len(raw) < offset + 4 * rank:
        raise FormatError(f"at byte {offset}: truncated dim list (rank {rank})")
    dims = tuple(int(d) for d in np.frombuffer(raw, dtype="<u4", count=rank, offset=offset))
    if any(d < 1 for d in dims):
        raise FormatError(f"at byte {offset}: zero extent in dims {dims}")
    offset += 4 * rank
    n = math.prod(dims)                 # a Python int: no int64 wrap
    if len(raw) < offset + 4 * n:
        raise FormatError(
            f"at byte {offset}: truncated payload, need {4 * n} bytes, have {len(raw) - offset}"
        )
    data = np.frombuffer(raw, dtype="<f4", count=n, offset=offset).astype(np.float64)
    return Tensor(data.reshape(dims)), offset + 4 * n


def write_tensor(path, x: Tensor) -> None:
    atomic_write_bytes(path, tensor_to_bytes(x))


def read_tensor(path) -> Tensor:
    with open(path, "rb") as f:
        raw = f.read()
    t, end = tensor_from_bytes(raw, 0)
    if end != len(raw):
        raise FormatError(f"at byte {end}: {len(raw) - end} trailing bytes")
    return t


# ---------------------------------------------------------------------------
# dataset manifests: newline-delimited "path<TAB>label" records


def save_dataset(directory, samples) -> str:
    """Write each sample tensor plus a manifest; returns the manifest path."""
    os.makedirs(directory, exist_ok=True)
    records = []
    for i, (video, label) in enumerate(samples):
        name = f"sample_{i:05d}.actf"
        write_tensor(os.path.join(directory, name), video)
        records.append((name, label))
    manifest = os.path.join(directory, "manifest.tsv")
    atomic_write_text(manifest, "".join(f"{p}\t{l}\n" for p, l in records))
    return manifest


def load_dataset(manifest_path):
    """Read a manifest and its tensors back as (video Tensor, label) pairs.

    A manifest that is not UTF-8 text, or that names a sample file which
    cannot be opened, is malformed (FormatError).
    """
    base = os.path.dirname(os.path.abspath(manifest_path))
    with open(manifest_path, "rb") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise FormatError(f"manifest {manifest_path}: at byte {e.start}: not UTF-8 text") from e
    samples = []
    # newline=None reads '\r\n' and '\r' as line ends, as a text-mode file does.
    for line_no, line in enumerate(io.StringIO(text, newline=None), 1):
        line = line.rstrip("\n")
        if not line:
            continue
        try:
            path, label = line.split("\t")
            label = int(label)
        except ValueError:
            raise FormatError(
                f"manifest line {line_no}: expected 'path<TAB>integer label', got {line!r}"
            )
        try:
            video = read_tensor(os.path.join(base, path))
        except FormatError:
            raise
        except (OSError, ValueError) as e:   # missing, unreadable, a directory, a NUL byte
            raise FormatError(f"manifest line {line_no}: cannot open {path!r}: {e}") from e
        if not np.isfinite(video.data).all():
            raise FormatError(f"manifest line {line_no}: {path} holds non-finite values")
        samples.append((video, label))
    if not samples:
        raise FormatError(f"manifest {manifest_path}: no records")
    return samples
