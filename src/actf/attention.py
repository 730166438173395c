"""Attentive concatenation weights: projection -> sigmoid -> softmax.

The same mechanism serves three sites: temporal weights over frame-pair
features, the pair-fusion scalars weighting the bilinear/mean features, and
the final-fusion scalars weighting the temporal/spatial video vectors.

Each site's squashing and weighting is one tape record with a hand-written
backward: ``attention_weights`` turns pair logits into weights, and
``fuse_pair`` splits two raw scalars and concatenates the weighted blocks.
Both compute with the array formulas ``tensor.sigmoid`` and ``tensor.softmax``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor


def init_temporal_attention(feat_dim: int, rng: np.random.Generator) -> Tensor:
    """The (feat_dim, 1) projection shared by all pairs, giving one logit per pair feature."""
    bound = np.sqrt(3.0 / feat_dim)
    return Tensor(rng.uniform(-bound, bound, size=(feat_dim, 1)), requires_grad=True)


def attention_weights(logits: Tensor, total: float = 1.0) -> Tensor:
    """Attention weights from (B, t-1) pair logits: sigmoid, then a softmax
    across the pairs of each video, times ``total``; each row non-negative,
    summing to ``total``. One record."""
    if logits.data.ndim != 2 or logits.data.shape[1] < 1:
        raise ShapeError(f"attention_weights: logits {logits.data.shape} are not (B, t-1 >= 1)")
    s = T.sigmoid(logits.data)
    alpha = T.softmax(s)

    def backward(g):
        g = g * total
        gs = alpha * (g - np.sum(g * alpha, axis=-1, keepdims=True))
        return (gs * s * (1.0 - s),)

    return T.apply_primitive(alpha * total, (logits,), backward)


def temporal_weights(maps: Tensor, proj: Tensor) -> Tensor:
    """Attention weights over frame pairs, from their feature maps.

    Pair maps (B, t-1, C, H, W) are averaged over space and projected by the
    (C, 1) ``proj`` to one logit each, then squashed by ``attention_weights``:
    alpha has shape (B, t-1). ``extract_actf`` computes the same logits from
    the frames by ``sketch.bilinear_logits``.
    """
    c = proj.data.shape[0]
    if maps.data.ndim != 5 or maps.data.shape[2] != c:
        raise ShapeError(f"temporal_weights: pair maps {maps.data.shape} are not (B, t-1, {c}, H, W)")
    b, p = maps.data.shape[:2]
    pooled = T.reshape(T.mean(maps, (3, 4)), (b * p, c))
    return attention_weights(T.reshape(T.matmul(pooled, proj), (b, p)))


@dataclass
class PairFusionWeights:
    """Two trainable raw scalars normalized to a (0,1) pair summing to 1.

    Effective weights are softmax over (sigmoid(raw_a), sigmoid(raw_b)); the
    sigmoid bounds the softmax logit gap, so each weight lies in roughly
    (0.269, 0.731).
    """

    raw_a: Tensor
    raw_b: Tensor


def init_pair_fusion() -> PairFusionWeights:
    # Zero raw scalars give the neutral 0.5/0.5 split.
    return PairFusionWeights(
        raw_a=Tensor(np.zeros(()), requires_grad=True),
        raw_b=Tensor(np.zeros(()), requires_grad=True),
    )


def _split(w: PairFusionWeights):
    """The normalized (w_a, w_b) and the sigmoids (s_a, s_b) of the raw scalars, as floats.

    A two-way softmax is a sigmoid of the logit gap: softmax(a, b)[0] = sigmoid(a - b).
    """
    sa, sb = T.sigmoid(np.array([w.raw_a.data, w.raw_b.data]))
    wa, wb = T.sigmoid(np.array([sa - sb, sb - sa]))
    return float(wa), float(wb), float(sa), float(sb)


def effective_weights(w: PairFusionWeights):
    """The normalized (w_a, w_b) pair, as 0-d Tensors of values: ``fuse_pair``
    weights its blocks by the same split and records its gradient."""
    wa, wb, _, _ = _split(w)
    return Tensor(wa), Tensor(wb)


def fuse_pair(a: Tensor, b: Tensor, w: PairFusionWeights) -> Tensor:
    """Weighted channel concatenation: concat(w_a * a, w_b * b), one record.

    Accepts feature maps (..., C, H, W) or rows of vectors (N, C).
    """
    axis = T.channel_axis(a, b, "fuse_pair")
    wa, wb, sa, sb = _split(w)
    ad, bd = a.data, b.data
    ca = ad.shape[axis]

    def backward(g):
        ga, gb = np.split(g, [ca], axis=axis)
        gwa, gwb = float(np.sum(ga * ad)), float(np.sum(gb * bd))
        # Back through w_a = sigmoid(s_a - s_b), w_b = sigmoid(s_b - s_a), s = sigmoid(raw).
        gu = gwa * wa * (1.0 - wa) - gwb * wb * (1.0 - wb)
        return (ga * wa if a.requires_grad else None, gb * wb if b.requires_grad else None,
                np.asarray(gu * sa * (1.0 - sa)), np.asarray(-gu * sb * (1.0 - sb)))

    out = np.concatenate([ad * wa, bd * wb], axis=axis)
    return T.apply_primitive(out, (a, b, w.raw_a, w.raw_b), backward)
