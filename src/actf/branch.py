"""The temporal-feature branch: bilinear inter-frame correlation with temporal
attention, pairwise mean features, attentive fusion, and the reduction to a
C_out-length video vector.

Shapes, batch-first, with F of shape (B, t, C_out, H, W) and sketch dimension d.
``extract_iccf``/``extract_imf`` give the paper's regional maps; ``extract_actf``
uses only their means over space and pairs, so it never forms them:
    bilinear correlation B : maps (B, t-1, d, H, W); attention logits (B, t-1)
                             and the alpha-weighted mean over pairs (B, d)
                             come from each video's second moments
    pairwise mean        L : maps (B, t-1, C_out, H, W); the mean over pairs
                             (B, C_out) is one ``tensor.mix_frames`` of the
                             frames' spatial means (B, t, C_out)
    fused, pooled over pairs: (B, d + C_out)
    output          v_actf : (B, C_out)

``pair_maps`` holds the one definition of the frame pairs: the fixed maps of
the frame axis onto each pair's leading frame, trailing frame and mean (the
IMF), and the IMF's mean over pairs, each applied by ``tensor.mix_frames``.
Each attention site is one tape record (``attention.attention_weights`` for the
pair weights alpha, ``attention.fuse_pair`` for the fusion), as is each mean over
pairs, and an unbatched feature is reshaped to a batch of one once: a single-clip
``extract_actf`` records 15 ops.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, ShapeError
from . import tensor as T
from .tensor import Tensor
from .sketch import SketchPlan, bilinear_logits, compact_bilinear, weighted_bilinear
from .attention import PairFusionWeights, attention_weights, fuse_pair, temporal_weights


@dataclass
class LowLevelFeature:
    """Backbone output with axes (batch, time, channels, height, width); t >= 2.

    A rank-4 (time, channels, height, width) tensor is one video: it enters
    the branch as a batch of one, and ``extract_actf`` returns a (C_out,) vector.
    """

    tensor: Tensor
    _memo: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.tensor.data.ndim not in (4, 5):
            raise ShapeError(f"LowLevelFeature must be rank 4 or 5, got {self.tensor.data.shape}")
        if self.frames < 2:
            raise InputError("LowLevelFeature needs at least 2 frames (one frame pair)")

    def _once(self, name: str, make) -> Tensor:
        """``make()``, taken once per feature array and active tape, then reused."""
        data, tape = self.tensor.data, T.active_tape()
        if self._memo is None or self._memo[0] is not data or self._memo[1] is not tape:
            self._memo = data, tape, {}
        made = self._memo[2]
        if name not in made:
            made[name] = make()
        return made[name]

    @property
    def unbatched(self) -> bool:
        return self.tensor.data.ndim == 4

    @property
    def batch(self) -> Tensor:
        """The feature as a (B, t, C, H, W) batch; an unbatched one is reshaped once."""
        x = self.tensor
        if not self.unbatched:
            return x
        return self._once("batch", lambda: T.reshape(x, (1,) + x.data.shape))

    @property
    def frames(self) -> int:
        return self.tensor.data.shape[-4]

    @property
    def spatial_mean(self) -> Tensor:
        """Each frame's mean over space, (B, t, C). The branch and the spatial pool
        share it: it is taken once per feature array and active tape."""
        return self._once("spatial_mean", lambda: T.mean(self.batch, (3, 4)))


def reduction(v: Tensor, w: dict) -> Tensor:
    """Three linear layers (ReLU after the first two) mapping pooled fused
    features (B, C) down to (B, C_out), with weights {"w1", "b1", ..., "b3"}."""
    x = T.relu(T.linear(v, w["w1"], w["b1"]))
    x = T.relu(T.linear(x, w["w2"], w["b2"]))
    return T.linear(x, w["w3"], w["b3"])


@dataclass
class ActfParams:
    """Everything learnable (plus the frozen sketch plan) in the temporal branch."""

    plan: SketchPlan
    attn: Tensor               # (d, 1) temporal attention projection
    pair_fusion: PairFusionWeights
    reduction: dict            # {"w1", "b1", ..., "b3"}: the model's "reduction.*" tensors


@functools.lru_cache(maxsize=None)
def pair_maps(t: int):
    """The fixed maps of the frame axis onto its t-1 consecutive pairs, for
    ``tensor.mix_frames``: each pair's leading frame, its trailing frame and
    their mean, the IMF, as (t-1, t) matrices, and the IMF's mean over pairs,
    (1/2, 1, ..., 1, 1/2) / (t-1), as a (t,) vector. Read-only, kept per t.

    A frame enters every pair's map, most at weight 0, so a non-finite frame
    makes every pair's map NaN (0·inf)."""
    eye = np.eye(t)
    lead, trail = eye[:-1], eye[1:]
    imf = (lead + trail) / 2
    maps = lead, trail, imf, imf.mean(axis=0)
    for m in maps:
        m.flags.writeable = False
    return maps


def extract_iccf(F: LowLevelFeature, plan: SketchPlan, attn: Tensor) -> Tensor:
    """Per-pair compact bilinear correlation (B, t-1, d, H, W), each pair scaled
    by its temporal attention weight."""
    x = F.batch
    n, t, c, h, w = x.data.shape
    lead, trail, _, _ = pair_maps(t)
    # Every pair at every location goes through the sketch as one (B*(t-1)*H*W, C) batch.
    rows = lambda m: T.reshape(T.transpose(T.mix_frames(x, m), (0, 1, 3, 4, 2)), (-1, c))
    cb = compact_bilinear(rows(lead), rows(trail), plan)
    b = T.transpose(T.reshape(cb, (n, t - 1, h, w, plan.output_dim)), (0, 1, 4, 2, 3))
    return T.scale(b, temporal_weights(b, attn))


def extract_imf(F: LowLevelFeature) -> Tensor:
    """Mean of each consecutive frame pair: (B, t-1, C, H, W)."""
    _, _, imf, _ = pair_maps(F.frames)
    return T.mix_frames(F.batch, imf)


def extract_actf(F: LowLevelFeature, params: ActfParams,
                 attend: bool = True, imf_weight_zero: bool = False) -> Tensor:
    """Full temporal branch: correlation + mean features, fused, pooled, reduced.

    Equals the reduced mean of the fused ``extract_iccf``/``extract_imf`` maps.
    ``imf_weight_zero`` forces the mean-feature fusion weight to 0 (correlation
    only): the mean features are a zero block, never computed. ``attend`` off
    replaces every attentive concatenation with direct concatenation at weight 1.
    """
    x = F.batch
    n, t, c, h, w = x.data.shape
    # Each frame as H*W rows of C-vectors, (B, t, H*W, C).
    rows = T.reshape(T.transpose(x, (0, 1, 3, 4, 2)), (n, t, h * w, c))
    # The mean over pairs of the sketches, each weighted by its attention weight.
    weights = (attention_weights(bilinear_logits(rows, params.attn, params.plan)) if attend
               else Tensor(np.ones((n, t - 1))))
    iccf = weighted_bilinear(rows, weights, params.plan)
    if imf_weight_zero:
        h_cat = T.concat_channels(iccf, Tensor(np.zeros((n, c))))
    else:
        imf = T.mix_frames(F.spatial_mean, pair_maps(t)[-1])
        h_cat = fuse_pair(iccf, imf, params.pair_fusion) if attend else T.concat_channels(iccf, imf)
    v = reduction(h_cat, params.reduction)
    return T.reshape(v, v.data.shape[1:]) if F.unbatched else v
