"""Independent numpy reference of the ACTF classifier, its loss and its branch.

Written from the model's definition, not from the package's code: it reads
only the weights (a name -> array dict, as `model.named_tensors` lists them)
and the sketch plan's hash and sign tables `h1, h2, s1, s2`. Where the
package uses dense scatter matrices, real FFTs, sliding-window einsums and
staged means, this file uses `np.add.at`, complex FFTs, shifted sums and
single means, so a shared mistake is unlikely.

Shapes are batch-first: videos are (N, t, 3, H, W), the backbone gives F of
shape (N, t, C, h, w) with h = H/4, and the sketch width is d.
"""

from __future__ import annotations

import numpy as np

VARIANTS = ("full", "single-actf", "iccf-only", "no-attn", "spatial-only")


def weights_of(params) -> dict:
    """Copy every model tensor out of `named_tensors` into a plain dict."""
    from actf import model as M

    return {name: np.array(t.data, dtype=np.float64) for name, t in M.named_tensors(params)}


def tables_of(plan) -> tuple:
    """The plan's hash and sign tables as plain arrays."""
    return (np.asarray(plan.h1, dtype=np.int64), np.asarray(plan.h2, dtype=np.int64),
            np.asarray(plan.s1, dtype=np.float64), np.asarray(plan.s2, dtype=np.float64))


# ---------------------------------------------------------------------------
# building blocks


def relu(x):
    return np.maximum(x, 0.0)


class HeldRelu:
    """A ReLU whose on/off pattern is recorded at one point and replayed at others.

    Call `record` in one evaluation, then `replay()` for each later one: the
    k-th ReLU of a replayed evaluation keeps the k-th recorded mask. The held
    function is smooth in the weights and has the same derivative as the
    model at the recorded point, taking ReLU'(0) = 0 there.
    """

    def __init__(self):
        self.masks = []

    def record(self, x):
        self.masks.append(x > 0)
        return np.where(self.masks[-1], x, 0.0)

    def replay(self):
        masks = iter(self.masks)
        return lambda x: np.where(next(masks), x, 0.0)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def softmax(x):
    z = np.exp(x - np.max(x))
    return z / z.sum()


def conv_same(x, w, b):
    """Stride-1, zero-padded 'same' convolution as a sum of shifted products.

    x: (N, Ci, H, W); w: (Co, Ci, kh, kw) with odd kh, kw; b: (Co,).
    """
    n, _, h, wd = x.shape
    co, _, kh, kw = w.shape
    xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
    out = np.zeros((co, n, h, wd))
    for i in range(kh):
        for j in range(kw):
            out += np.tensordot(w[:, :, i, j], xp[:, :, i:i + h, j:j + wd], axes=([1], [1]))
    return out.transpose(1, 0, 2, 3) + b[None, :, None, None]


def pool2(x):
    """2x2 mean pool with stride 2 over the last two axes."""
    n, c, h, w = x.shape
    return x.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))


def count_sketch(x, h, s, d):
    """Rows of x (N, C) sketched to (N, d): out[:, h[i]] += s[i] * x[:, i]."""
    out = np.zeros((d, x.shape[0]))
    np.add.at(out, h, s[:, None] * x.T)
    return np.ascontiguousarray(out.T)


def circular_convolve(a, b):
    """out[k] = sum_j a[j] b[(k - j) mod d] along the last axis, by complex FFT."""
    return np.real(np.fft.ifft(np.fft.fft(a, axis=-1) * np.fft.fft(b, axis=-1), axis=-1))


def compact_bilinear(x, y, tables, d):
    """Tensor-sketch of the outer products of the rows of x and y: (N, C) -> (N, d)."""
    h1, h2, s1, s2 = tables
    return circular_convolve(count_sketch(x, h1, s1, d), count_sketch(y, h2, s2, d))


def brute_force_sketch(x, y, tables, d):
    """sum over (h1(i) + h2(j)) mod d = k of s1(i) s2(j) x_i y_j, for one pair of vectors."""
    h1, h2, s1, s2 = tables
    outer = (s1 * x)[:, None] * (s2 * y)[None, :]
    buckets = (h1[:, None] + h2[None, :]) % d
    return np.bincount(buckets.ravel(), weights=outer.ravel(), minlength=d)


def fusion_split(raw_a, raw_b):
    """The attentive pair split: softmax over (sigmoid(raw_a), sigmoid(raw_b))."""
    p = softmax(np.array([sigmoid(float(raw_a)), sigmoid(float(raw_b))]))
    return p[0], p[1]


# ---------------------------------------------------------------------------
# the model, batch-first: videos (N, t, 3, H, W)


def backbone(w, videos, relu=relu):
    n, t = videos.shape[:2]
    x = videos.reshape(n * t, *videos.shape[2:])
    x = pool2(relu(conv_same(x, w["backbone.w1"], w["backbone.b1"])))
    x = pool2(relu(conv_same(x, w["backbone.w2"], w["backbone.b2"])))
    return x.reshape(n, t, *x.shape[1:])


def temporal_alpha(w, corr):
    """Temporal attention over pair features corr (N, t-1, d, h, w) -> (N, t-1)."""
    z = sigmoid(corr.mean(axis=(3, 4)) @ w["attn.proj"][:, 0])
    z = np.exp(z - z.max(axis=1, keepdims=True))
    return z / z.sum(axis=1, keepdims=True)


def pair_sketches(tables, F, d):
    """Compact bilinear maps of consecutive frames of F (N, t, C, h, w) -> (N, t-1, d, h, w)."""
    n, t, c, hh, ww = F.shape
    rows = lambda f: f.transpose(0, 1, 3, 4, 2).reshape(-1, c)
    corr = compact_bilinear(rows(F[:, :-1]), rows(F[:, 1:]), tables, d)
    return corr.reshape(n, t - 1, hh, ww, d).transpose(0, 1, 4, 2, 3)


def branch(w, tables, F, attend=True, imf_weight_zero=False, relu=relu, corr=None):
    """The temporal branch on features F (N, t, C, h, w) -> (N, C_out).

    `corr`, when given, is `pair_sketches(tables, F, d)` computed beforehand.
    """
    if corr is None:
        corr = pair_sketches(tables, F, w["attn.proj"].shape[0])
    mean = 0.5 * (F[:, :-1] + F[:, 1:])
    if attend:
        corr = corr * temporal_alpha(w, corr)[:, :, None, None, None]
    if imf_weight_zero:
        fused = np.concatenate([corr, 0.0 * mean], axis=2)
    elif attend:
        wa, wb = fusion_split(w["pair_fusion.raw_a"], w["pair_fusion.raw_b"])
        fused = np.concatenate([wa * corr, wb * mean], axis=2)
    else:
        fused = np.concatenate([corr, mean], axis=2)
    v = fused.mean(axis=(1, 3, 4))
    v = relu(v @ w["reduction.w1"] + w["reduction.b1"])
    v = relu(v @ w["reduction.w2"] + w["reduction.b2"])
    return v @ w["reduction.w3"] + w["reduction.b3"]


def logits(w, tables, videos, variant, relu=relu, features=None):
    """Class scores (N, classes) of videos (N, t, 3, H, W) for one of the five variants.

    `features`, when given, is `backbone(w, videos)` computed beforehand.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    F = backbone(w, videos, relu) if features is None else features
    v_st = F.mean(axis=(1, 3, 4))
    if variant == "spatial-only":
        v = v_st
    elif variant == "single-actf":
        v = branch(w, tables, F, relu=relu)
    elif variant == "no-attn":
        v = np.concatenate([branch(w, tables, F, attend=False, relu=relu), v_st], axis=1)
    else:
        v_actf = branch(w, tables, F, imf_weight_zero=(variant == "iccf-only"),
                        relu=relu)
        wa, wb = fusion_split(w["final_fusion.raw_a"], w["final_fusion.raw_b"])
        v = np.concatenate([wa * v_actf, wb * v_st], axis=1)
    return v @ w["clf.w"] + w["clf.b"]


def mean_loss(w, tables, videos, labels, variant, relu=relu, features=None):
    """Mean softmax cross-entropy of the videos against integer labels."""
    z = logits(w, tables, videos, variant, relu, features)
    m = z.max(axis=1)
    lse = m + np.log(np.exp(z - m[:, None]).sum(axis=1))
    return float(np.mean(lse - z[np.arange(len(labels)), labels]))


def directional_derivatives(f, x, directions, eps):
    """Central finite differences (f(x + eps u) - f(x - eps u)) / 2 eps for each u in
    `directions`, with every ReLU pattern held at x.

    f(x, relu) must route every ReLU through `relu`. Without the held
    pattern, a ReLU input closer to its kink than the step adds about half
    its slope to the difference, whatever the step.
    """
    held = HeldRelu()
    f(x, held.record)
    return [(f(x + eps * u, held.replay()) - f(x - eps * u, held.replay())) / (2.0 * eps)
            for u in directions]
