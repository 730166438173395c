"""Attentive concatenation weights: projection -> sigmoid -> softmax.

The same mechanism serves three sites: temporal weights over frame-pair
features, the pair-fusion scalars weighting the bilinear/mean features, and
the final-fusion scalars weighting the temporal/spatial video vectors.

Every site squashes by ``_squash``, softmax(sigmoid(logits)) over each row,
and its backward, in one tape record: ``attention_weights`` turns pair logits
into weights, and ``fuse_pair`` squashes its two raw scalars as one row and
concatenates the weighted blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from . import tensor as T
from .tensor import Tensor


def _squash(logits: np.ndarray):
    """softmax(sigmoid(logits)) over the last axis, and its backward from the weights' cotangent."""
    s = T.sigmoid(logits)
    weights = T.softmax(s)

    def backward(g):
        gs = weights * (g - (g * weights).sum(axis=-1, keepdims=True))
        return gs * s * (1.0 - s)

    return weights, backward


def attention_weights(logits: Tensor) -> Tensor:
    """Attention weights from (B, t-1) pair logits: sigmoid, then a softmax
    across the pairs of each video; each row non-negative, summing to 1. One record."""
    if logits.data.ndim != 2 or logits.data.shape[1] < 1:
        raise ShapeError(f"attention_weights: logits {logits.data.shape} are not (B, t-1 >= 1)")
    alpha, backward = _squash(logits.data)
    return T.apply_primitive(alpha, (logits,), lambda g: (backward(g),))


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


def _split(w: PairFusionWeights):
    """The squash of the raw scalars as one row [[raw_a, raw_b]]: (w_a, w_b) as
    floats, and the backward from their cotangent to the raw row."""
    weights, backward = _squash(np.array([[w.raw_a.data, w.raw_b.data]]))
    return weights[0].tolist(), backward


def effective_weights(w: PairFusionWeights):
    """The normalized (w_a, w_b) pair, as 0-d Tensors of values: ``fuse_pair``
    weights its blocks by the same split and records its gradient."""
    return tuple(map(Tensor, _split(w)[0]))


def fuse_pair(a: Tensor, b: Tensor, w: PairFusionWeights) -> Tensor:
    """Weighted channel concatenation: concat(w_a * a, w_b * b), one record.

    Accepts feature maps (..., C, H, W) or rows of vectors (N, C).
    """
    axis = T.channel_axis(a, b, "fuse_pair")
    (wa, wb), split_backward = _split(w)
    ad, bd = a.data, b.data
    ca = ad.shape[axis]

    def backward(g):
        ga, gb = np.split(g, [ca], axis=axis)
        graw = split_backward(np.array([[np.sum(ga * ad), np.sum(gb * bd)]]))[0]
        return (ga * wa if a.requires_grad else None, gb * wb if b.requires_grad else None,
                np.asarray(graw[0]), np.asarray(graw[1]))

    out = np.concatenate([ad * wa, bd * wb], axis=axis)
    return T.apply_primitive(out, (a, b, w.raw_a, w.raw_b), backward)
