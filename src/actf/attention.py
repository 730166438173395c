"""Attentive concatenation weights: projection -> sigmoid -> softmax.

The same mechanism serves three sites: temporal weights over frame-pair
features, the pair-fusion scalars weighting the bilinear/mean features, and
the final-fusion scalars weighting the temporal/spatial video vectors.
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


def attention_weights(logits: Tensor) -> Tensor:
    """Attention weights from (B, t-1) pair logits: sigmoid, then a softmax
    across the pairs of each video; each row non-negative, summing to 1."""
    return T.softmax(T.sigmoid(logits))


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


def effective_weights(w: PairFusionWeights):
    """The normalized (w_a, w_b) pair as scalar tensors.

    A two-way softmax is a sigmoid of the logit gap: softmax(a, b)[0] = sigmoid(a - b).
    """
    sa, sb = T.sigmoid(w.raw_a), T.sigmoid(w.raw_b)
    return T.sigmoid(T.sub(sa, sb)), T.sigmoid(T.sub(sb, sa))


def fuse_pair(a: Tensor, b: Tensor, w: PairFusionWeights) -> Tensor:
    """Weighted channel concatenation: concat(w_a * a, w_b * b).

    Accepts feature maps (..., C, H, W) or rows of vectors (N, C).
    """
    wa, wb = effective_weights(w)
    return T.concat_channels(T.scale(a, wa), T.scale(b, wb))
