"""Full sequence classifier: tiny per-frame conv backbone, spatial-temporal
pooled branch, the correlated temporal branch, attentive final fusion, and a
linear classification head.

The backbone is strictly 2-D per frame (shared weights, no temporal kernels),
so every bit of temporal mixing in the model flows through the temporal
branch. Ablation variants disable individual stages to isolate its effect.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, FormatError, InputError
from . import tensor as T
from .tensor import Tensor
from .sketch import make_plan
from .attention import (
    PairFusionWeights,
    fuse_pair,
    init_pair_fusion,
    init_temporal_attention,
)
from .branch import (
    ActfParams,
    LowLevelFeature,
    extract_actf,
    init_reduction,
)

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

    @property
    def concat_channels(self) -> int:
        return self.out_channels + self.sketch_dim

    # Hidden widths of the reduction network: a geometric taper.
    @property
    def r1(self) -> int:
        return max(1, self.concat_channels // 2)

    @property
    def r2(self) -> int:
        return 2 * self.out_channels

    @property
    def feature_spatial(self) -> tuple:
        # Two stride-2 poolings in the backbone.
        return self.height // 4, self.width // 4


@dataclass
class Backbone:
    """Two 3x3 same-padded conv layers with a stride-2 mean pool after each,
    run on all B*t frames of a (B, t, C, H, W) batch at once."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def apply(self, videos: Tensor) -> LowLevelFeature:
        n, t = videos.data.shape[:2]
        x = T.reshape(videos, (n * t,) + videos.data.shape[2:])
        x = T.avg_pool(T.relu(T.conv2d(x, self.w1, self.b1)), 2)
        x = T.avg_pool(T.relu(T.conv2d(x, self.w2, self.b2)), 2)
        return LowLevelFeature(T.reshape(x, (n, t) + x.data.shape[1:]))


@dataclass
class ModelParams:
    dims: ModelDims
    seed: int
    variant: str
    backbone: Backbone
    actf: ActfParams
    final_fusion: PairFusionWeights
    clf_w: Tensor
    clf_b: Tensor


# Inputs are sparse (a small bright blob on a zero background), so fan-in
# scaled init leaves the pooled activations far too small for a single
# global learning rate. The extra gain keeps both feature vectors near
# unit scale at init.
_CONV_GAIN = 6.0


def _conv_layer(c_in, c_out, k, rng):
    bound = _CONV_GAIN * np.sqrt(3.0 / (c_in * k * k))
    w = Tensor(rng.uniform(-bound, bound, size=(c_out, c_in, k, k)), requires_grad=True)
    b = Tensor(np.zeros(c_out), requires_grad=True)
    return w, b


def _classifier_dim(dims: ModelDims, variant: str) -> int:
    if variant in ("single-actf", "spatial-only"):
        return dims.out_channels
    return 2 * dims.out_channels


def _init_classifier(dims: ModelDims, seed: int, variant: str):
    # Seeded by the classifier input width so variants with the same head
    # shape share an identical head initialization.
    c_in = _classifier_dim(dims, variant)
    rng = np.random.default_rng([seed, c_in])
    bound = np.sqrt(3.0 / c_in)
    w = Tensor(rng.uniform(-bound, bound, size=(c_in, dims.n_classes)), requires_grad=True)
    b = Tensor(np.zeros(dims.n_classes), requires_grad=True)
    return w, b


def init_params(dims: ModelDims, seed: int, variant: str = "full") -> ModelParams:
    """Initialize all weights deterministically from ``seed``."""
    if variant not in VARIANTS:
        raise ConfigError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
    rng = np.random.default_rng(seed)
    w1, b1 = _conv_layer(IN_CHANNELS, dims.conv1_channels, 3, rng)
    w2, b2 = _conv_layer(dims.conv1_channels, dims.out_channels, 3, rng)
    attn = init_temporal_attention(dims.sketch_dim, rng)
    reduction = init_reduction(dims.concat_channels, dims.r1, dims.r2, dims.out_channels, rng)
    actf = ActfParams(
        plan=make_plan(dims.out_channels, dims.sketch_dim, seed),
        attn=attn,
        pair_fusion=init_pair_fusion(),
        reduction=reduction,
    )
    clf_w, clf_b = _init_classifier(dims, seed, variant)
    return ModelParams(
        dims=dims,
        seed=int(seed),
        variant=variant,
        backbone=Backbone(w1, b1, w2, b2),
        actf=actf,
        final_fusion=init_pair_fusion(),
        clf_w=clf_w,
        clf_b=clf_b,
    )


def stpool(F: LowLevelFeature) -> Tensor:
    """Global mean over time and space per channel (the spatial branch): (B, C)."""
    return T.mean(F.batch, (1, 3, 4))


def forward(videos: Tensor, params: ModelParams) -> Tensor:
    """Run a batch of videos (B, t, 3, H, W) through the variant's pipeline to logits (B, classes)."""
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
    F = params.backbone.apply(videos)
    variant = params.variant
    if variant == "spatial-only":
        v = stpool(F)
    elif variant == "single-actf":
        v = extract_actf(F, params.actf)
    elif variant == "no-attn":
        v = T.concat_channels(extract_actf(F, params.actf, attend=False), stpool(F))
    elif variant in ("full", "iccf-only"):
        v_actf = extract_actf(F, params.actf, imf_weight_zero=(variant == "iccf-only"))
        v = fuse_pair(v_actf, stpool(F), params.final_fusion)
    else:
        raise ConfigError(f"unknown variant {variant!r}")
    return T.linear(v, params.clf_w, params.clf_b)


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
# parameter registry


def named_tensors(params: ModelParams):
    """Every tensor of the model in a fixed serialization order."""
    r = params.actf.reduction
    return [
        ("backbone.w1", params.backbone.w1),
        ("backbone.b1", params.backbone.b1),
        ("backbone.w2", params.backbone.w2),
        ("backbone.b2", params.backbone.b2),
        ("attn.proj", params.actf.attn),
        ("pair_fusion.raw_a", params.actf.pair_fusion.raw_a),
        ("pair_fusion.raw_b", params.actf.pair_fusion.raw_b),
        ("reduction.w1", r.w1),
        ("reduction.b1", r.b1),
        ("reduction.w2", r.w2),
        ("reduction.b2", r.b2),
        ("reduction.w3", r.w3),
        ("reduction.b3", r.b3),
        ("final_fusion.raw_a", params.final_fusion.raw_a),
        ("final_fusion.raw_b", params.final_fusion.raw_b),
        ("clf.w", params.clf_w),
        ("clf.b", params.clf_b),
    ]


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
            "seed": params.actf.plan.seed,
            "input_dim": params.actf.plan.input_dim,
            "output_dim": params.actf.plan.output_dim,
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
    params = init_params(dims, seed, variant)
    plan = params.actf.plan
    if plan_record != (plan.seed, plan.input_dim, plan.output_dim):
        raise ConfigError("checkpoint plan record conflicts with model dims")
    by_name = dict(named_tensors(params))
    if listed != sorted(by_name):
        raise FormatError(
            f"at byte 10: checkpoint lists tensors {names}, "
            f"expected each of {sorted(by_name)} exactly once"
        )
    offset = 10 + meta_len
    for name in names:
        start = offset
        t, offset = tensor_from_bytes(raw, offset)
        target = by_name[name]
        if t.data.size != target.data.size:
            raise FormatError(
                f"at byte {start}: checkpoint tensor {name!r} has {t.data.size} values, "
                f"expected {target.data.size}"
            )
        # By size: older files store the reduction biases as (1, M) rows.
        target.data = t.data.reshape(target.data.shape)
    if offset != len(raw):
        raise FormatError(f"at byte {offset}: {len(raw) - offset} trailing bytes after the last tensor")
    return params
