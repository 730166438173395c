"""Full sequence classifier: tiny per-frame conv backbone, spatial-temporal
pooled branch, the correlated temporal branch, attentive final fusion, and a
linear classification head.

The backbone is strictly 2-D per frame (shared weights, no temporal kernels),
so every bit of temporal mixing in the model flows through the temporal
branch. Ablation variants disable individual stages to isolate its effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputError
from . import tensor as T
from .tensor import Tensor
from .sketch import MAX_SIZE, SketchPlan, make_plan
from .attention import PairFusionWeights, fuse_pair
from .branch import ActfParams, LowLevelFeature, extract_actf

IN_CHANNELS = 3   # RGB frames


@dataclass(frozen=True)
class ModelDims:
    """All size hyperparameters of one model instance."""

    frames: int
    height: int
    width: int
    conv1_channels: int
    out_channels: int          # C_out: channels of the low-level feature
    sketch_dim: int            # d: channels of the bilinear correlation feature
    n_classes: int

    def __post_init__(self):
        if self.frames < 2:
            raise ConfigError("ModelDims: need at least 2 frames")
        if self.height % 4 or self.width % 4 or self.height < 4 or self.width < 4:
            raise ConfigError(
                f"ModelDims: spatial size {self.height}x{self.width} must be a multiple of 4"
            )
        for name in ("conv1_channels", "out_channels", "sketch_dim", "n_classes"):
            if getattr(self, name) < 1:
                raise ConfigError(f"ModelDims: {name} must be >= 1")
        # With every size within int32, the sketch's hash tables are int32 and
        # every tensor dim (C_out + d and 2 C_out at most) fits a checkpoint's u32.
        for name, v in asdict(self).items():
            if v > MAX_SIZE:
                raise ConfigError(f"ModelDims: {name} must be <= {MAX_SIZE}, got {v}")

    @property
    def feature_spatial(self) -> tuple:
        # Two stride-2 poolings in the backbone.
        return self.height // 4, self.width // 4


@dataclass
class ModelParams:
    """One model: its sizes, seed and variant, the frozen sketch plan, and
    every tensor by its checkpoint name, in ``param_shapes`` order."""

    dims: ModelDims
    seed: int
    variant: str
    plan: SketchPlan
    tensors: dict

    @property
    def actf(self) -> ActfParams:
        """The temporal branch's weights: the plan and the same Tensor objects."""
        return branch_params(self.tensors, self.plan)


def branch_params(tensors: dict, plan: SketchPlan) -> ActfParams:
    """The temporal branch's view of a tensor table: the plan and the same Tensors."""
    return ActfParams(
        plan=plan,
        attn=tensors["attn.proj"],
        pair_fusion=fusion_weights(tensors, "pair_fusion"),
        reduction={name.removeprefix("reduction."): x for name, x in tensors.items()
                   if name.startswith("reduction.")},
    )


def fusion_weights(tensors: dict, site: str) -> PairFusionWeights:
    """The raw scalar pair of a fusion site, ``pair_fusion`` or ``final_fusion``."""
    return PairFusionWeights(tensors[f"{site}.raw_a"], tensors[f"{site}.raw_b"])


# Inputs are sparse (a small bright blob on a zero background), so fan-in
# scaled init leaves the pooled activations far too small for a single
# global learning rate. The extra gain keeps both feature vectors near
# unit scale at init.
_CONV_GAIN = 6.0


def param_shapes(dims: ModelDims, variant: str) -> dict:
    """The shape of each tensor of ``named_tensors``, by name: ``init_params``
    draws them, and ``load_checkpoint`` checks a file against them first."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    c1, c, d, k = dims.conv1_channels, dims.out_channels, dims.sketch_dim, dims.n_classes
    clf = c if variant in ("single-actf", "spatial-only") else 2 * c
    # The reduction's hidden widths taper the fused d + C_out features to C_out.
    r1, r2 = (d + c) // 2, 2 * c
    return {
        "backbone.w1": (c1, IN_CHANNELS, 3, 3), "backbone.b1": (c1,),
        "backbone.w2": (c, c1, 3, 3), "backbone.b2": (c,),
        "attn.proj": (d, 1), "pair_fusion.raw_a": (), "pair_fusion.raw_b": (),
        "reduction.w1": (d + c, r1), "reduction.b1": (r1,),
        "reduction.w2": (r1, r2), "reduction.b2": (r2,),
        "reduction.w3": (r2, c), "reduction.b3": (c,),
        "final_fusion.raw_a": (), "final_fusion.raw_b": (),
        "clf.w": (clf, k), "clf.b": (k,),
    }


def init_params(dims: ModelDims, seed: int, variant: str = "full") -> ModelParams:
    """Draw every tensor of ``param_shapes`` deterministically from ``seed``, in order.

    Biases and fusion scalars start at zero. A weight is uniform within
    +-sqrt(3 / fan-in), times ``_CONV_GAIN`` for the conv kernels. ``clf.w``
    draws from its own [seed, fan-in] stream, so variants with the same head
    shape share an identical head initialization.
    """
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in param_shapes(dims, variant).items():
        if len(shape) < 2:
            data = np.zeros(shape)
        else:
            kernel = len(shape) == 4
            fan_in = math.prod(shape[1:]) if kernel else shape[0]
            bound = (_CONV_GAIN if kernel else 1.0) * np.sqrt(3.0 / fan_in)
            draw = np.random.default_rng([seed, fan_in]) if name == "clf.w" else rng
            data = draw.uniform(-bound, bound, size=shape)
        tensors[name] = Tensor(data, requires_grad=True)
    return ModelParams(dims, int(seed), variant,
                       make_plan(dims.out_channels, dims.sketch_dim, seed), tensors)


def stpool(F: LowLevelFeature) -> Tensor:
    """Global mean over time and space per channel (the spatial branch): (B, C)."""
    return T.mean(F.spatial_mean, (1,))


# Least estimated multiply-adds of a shard of ``forward``'s batch. On 2 cores
# (CHANGES.md has the sweep) a 16-video batch at the default dims (8.5M each)
# ran fastest as two shards, and 128 videos of 4x16x16, C_out 8 (0.15M) as one.
WORK_PER_SHARD = 48 << 20


def video_work(dims: ModelDims, frames: int) -> int:
    """Multiply-adds of one video in ``forward``'s shard plan: both backbone im2col
    GEMMs (with the bias row) and two C_out x C_out moment GEMMs per pair location."""
    h, w, c1, c = dims.height, dims.width, dims.conv1_channels, dims.out_channels
    backbone = h * w * c1 * (9 * IN_CHANNELS + 1) + (h // 2) * (w // 2) * c * (9 * c1 + 1)
    return frames * backbone + (frames - 1) * (h // 4) * (w // 4) * 2 * c * c


def forward(videos: Tensor, params: ModelParams) -> Tensor:
    """Run a batch of videos (B, t, 3, H, W) through the variant's pipeline to logits (B, classes).

    The batch runs as ``tensor.batch_parallel`` shards of at least
    ``WORK_PER_SHARD`` of ``video_work`` each, at most B, and a power of two of
    them to split evenly over 2, 4 or 8 cores. The plan follows only the batch
    and the dims, so the result is the same at any core count."""
    d = params.dims
    if videos.data.ndim != 5 or videos.data.shape[2] != IN_CHANNELS:
        raise InputError(
            f"forward: expected (B, t, {IN_CHANNELS}, H, W), got {videos.data.shape}"
        )
    if videos.data.shape[1] < 2:
        raise InputError("forward: need at least 2 frames")
    if videos.data.shape[3:] != (d.height, d.width):
        raise InputError(
            f"forward: spatial size {videos.data.shape[3:]} != configured ({d.height}, {d.width})"
        )
    if params.variant not in VARIANTS:
        raise ConfigError(f"unknown variant {params.variant!r}")

    def logits(videos: Tensor, t: dict) -> Tensor:
        # Both conv layers run on all B*t frames at once.
        n, frames = videos.data.shape[:2]
        x = T.reshape(videos, (n * frames,) + videos.data.shape[2:])
        x = T.conv_relu_pool(x, t["backbone.w1"], t["backbone.b1"])
        x = T.conv_relu_pool(x, t["backbone.w2"], t["backbone.b2"])
        F = LowLevelFeature(T.reshape(x, (n, frames) + x.data.shape[1:]))
        variant, actf = params.variant, branch_params(t, params.plan)
        if variant == "spatial-only":
            v = stpool(F)
        elif variant == "single-actf":
            v = extract_actf(F, actf)
        elif variant == "no-attn":
            v = T.concat_channels(extract_actf(F, actf, attend=False), stpool(F))
        else:
            v_actf = extract_actf(F, actf, imf_weight_zero=(variant == "iccf-only"))
            v = fuse_pair(v_actf, stpool(F), fusion_weights(t, "final_fusion"))
        return T.linear(v, t["clf.w"], t["clf.b"])

    n, frames = videos.data.shape[:2]
    shards = max(1, min(n, n * video_work(d, frames) // WORK_PER_SHARD))
    shards = 1 << (shards.bit_length() - 1)
    return T.batch_parallel(logits, videos, params.tensors, shards)


# Each variant, with the parameter groups (name prefixes in `named_tensors`)
# that its `forward` never reaches: they get no gradient and are not trained.
_UNREACHED = {
    "full": (),
    "single-actf": ("final_fusion",),
    "iccf-only": ("pair_fusion",),
    "no-attn": ("attn", "pair_fusion", "final_fusion"),
    "spatial-only": ("attn", "pair_fusion", "reduction", "final_fusion"),
}
VARIANTS = tuple(_UNREACHED)


# ---------------------------------------------------------------------------
# the parameter table


def named_tensors(params: ModelParams):
    """Every (name, tensor) of the model, in checkpoint order."""
    return params.tensors.items()


def trainable_parameters(params: ModelParams):
    """(name, tensor, weight_decay?) triples reached by the variant's forward.

    Weight decay applies to the tensors of rank >= 2, the weight matrices and
    kernels; biases and the raw fusion scalars are exempt (decaying fusion
    logits toward the neutral split would be a modeling choice, not
    regularization).
    """
    unreached = _UNREACHED[params.variant]
    return [(name, t, t.data.ndim >= 2) for name, t in named_tensors(params)
            if name.split(".")[0] not in unreached]


# ---------------------------------------------------------------------------
# checkpoints

_CKPT_MAGIC = b"ACKP"
_CKPT_VERSION = 1
# Settings that older files record in `dims`, each at its only value.
_FIXED_DIMS = {"in_channels": IN_CHANNELS, "reduce1": 0, "reduce2": 0}


def save_checkpoint(path, params: ModelParams) -> None:
    """Versioned binary container: JSON metadata + tensors in the file format
    of :mod:`actf.data` (32-bit payloads). Sketch tables are regenerated from
    the recorded seed, not stored."""
    from .data import tensor_to_bytes
    from ._io import atomic_write_bytes

    meta = {
        "dims": asdict(params.dims),
        "seed": params.seed,
        "variant": params.variant,
        "plan": {
            "seed": params.plan.seed,
            "input_dim": params.plan.input_dim,
            "output_dim": params.plan.output_dim,
        },
        "tensors": [name for name, _ in named_tensors(params)],
    }
    blob = json.dumps(meta, sort_keys=True).encode()
    parts = [_CKPT_MAGIC,
             np.uint16(_CKPT_VERSION).tobytes(),
             np.uint32(len(blob)).tobytes(),
             blob]
    for _, t in named_tensors(params):
        parts.append(tensor_to_bytes(t))
    atomic_write_bytes(path, b"".join(parts))


def load_checkpoint(path) -> ModelParams:
    from .data import tensor_from_bytes

    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _CKPT_MAGIC:
        raise FormatError(f"at byte 0: bad checkpoint magic {raw[:4]!r}")
    if len(raw) < 10:
        raise FormatError(f"at byte 0: truncated checkpoint header, need 10 bytes, have {len(raw)}")
    version = int(np.frombuffer(raw[4:6], dtype="<u2")[0])
    if version != _CKPT_VERSION:
        raise FormatError(f"at byte 4: unsupported checkpoint version {version}")
    meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
    try:
        meta = json.loads(raw[10:10 + meta_len].decode())
        # Indexing anything but a JSON object by name raises TypeError.
        dims, seed, variant, pm, names = (
            meta[k] for k in ("dims", "seed", "variant", "plan", "tensors"))
        if not (isinstance(dims, dict) and all(type(v) is int for v in (seed, *dims.values()))
                and seed >= 0):
            raise TypeError(f"seed (>= 0) and dims fields must be integers: {seed!r}, {dims!r}")
        fixed = {k: dims.pop(k) for k in _FIXED_DIMS if k in dims}
        if any(v != _FIXED_DIMS[k] for k, v in fixed.items()):
            raise TypeError(f"dims fields {fixed} differ from their fixed values {_FIXED_DIMS}")
        dims = ModelDims(**dims)
        plan_record, listed = (pm["seed"], pm["input_dim"], pm["output_dim"]), sorted(names)
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise FormatError(f"at byte 10: malformed checkpoint metadata: {e!r}") from e
    # Every size is checked against the metadata before the model is built:
    # a small file must not make the loader allocate what its dims claim.
    if plan_record != (seed, dims.out_channels, dims.sketch_dim):
        raise ConfigError("checkpoint plan record conflicts with model dims")
    shapes = param_shapes(dims, variant)
    if listed != sorted(shapes):
        raise FormatError(
            f"at byte 10: checkpoint lists tensors {names}, "
            f"expected each of {sorted(shapes)} exactly once"
        )
    offset, loaded = 10 + meta_len, {}
    for name in names:
        start = offset
        t, offset = tensor_from_bytes(raw, offset)
        if t.data.size != math.prod(shapes[name]):
            raise FormatError(
                f"at byte {start}: checkpoint tensor {name!r} has {t.data.size} values, "
                f"expected the {math.prod(shapes[name])} of {shapes[name]}"
            )
        if not np.isfinite(t.data).all():
            raise FormatError(f"at byte {start}: checkpoint tensor {name!r} holds non-finite values")
        # By size: older files store the reduction biases as (1, M) rows.
        # Parameters are float64 however they were stored.
        loaded[name] = t.data.reshape(shapes[name]).astype(np.float64)
    if offset != len(raw):
        raise FormatError(f"at byte {offset}: {len(raw) - offset} trailing bytes after the last tensor")
    tensors = {name: Tensor(loaded[name], requires_grad=True) for name in shapes}
    return ModelParams(dims, seed, variant,
                       make_plan(dims.out_channels, dims.sketch_dim, seed), tensors)
