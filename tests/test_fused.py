"""The fused attention-site primitives against the chains of small ops they
replace, and the tape records that a branch call and a forward make."""

import numpy as np
import pytest

from actf import attention as A
from actf import branch as B
from actf import model as M
from actf import tensor as T

RTOL = 1e-12


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


# The composed chains, one tape record per elementary op.

def _sigmoid(x):
    y = T.sigmoid(x.data)
    return T.apply_primitive(y, (x,), lambda g: (g * y * (1.0 - y),))


def _softmax(x):
    y = T.softmax(x.data)
    return T.apply_primitive(y, (x,), lambda g: (y * (g - np.sum(g * y, axis=-1, keepdims=True)),))


def _sub(a, b):
    return T.apply_primitive(a.data - b.data, (a, b), lambda g: (g, -g))


def _add(a, b):
    return T.apply_primitive(a.data + b.data, (a, b), lambda g: (g, g))


def _frames(x, lo, hi):
    """x[:, lo:hi], with the cotangent put back in place."""
    def backward(g):
        gx = np.zeros(x.data.shape)
        gx[:, lo:hi] = g
        return (gx,)

    return T.apply_primitive(x.data[:, lo:hi], (x,), backward)


def chain_attention_weights(logits):
    return _softmax(_sigmoid(logits))


def chain_fuse_pair(a, b, w):
    sa, sb = _sigmoid(w.raw_a), _sigmoid(w.raw_b)
    wa, wb = _sigmoid(_sub(sa, sb)), _sigmoid(_sub(sb, sa))
    return T.concat_channels(T.scale(a, wa), T.scale(b, wb))


def chain_pair_mean(x):
    """The mean over pairs of each consecutive frame pair's mean."""
    frames = x.data.shape[1]
    first, second = _frames(x, 0, frames - 1), _frames(x, 1, frames)
    return T.mean(T.scale(_add(first, second), t(0.5)), (1,))


def _use_chains(monkeypatch):
    """Route every caller of the fused primitives through the chains."""
    for module in (A, B):
        monkeypatch.setattr(module, "attention_weights", chain_attention_weights)
    for module in (A, B, M):
        monkeypatch.setattr(module, "fuse_pair", chain_fuse_pair)
    # A forward mixes frames only to pool the IMF over pairs.
    monkeypatch.setattr(T, "mix_frames", lambda x, w: chain_pair_mean(x))


def _assert_close(got, want):
    assert got.shape == want.shape
    assert float(np.max(np.abs(got - want), initial=0.0)) <= RTOL * float(
        np.max(np.abs(want), initial=0.0))


def _value_and_grads(op, leaves):
    """op(*leaves), and every leaf's gradient for one fixed random cotangent of it."""
    for leaf in leaves:
        leaf.grad = None
    with T.Tape() as tape:
        out = op(*leaves)
        tape.backward(out, np.random.default_rng(0).standard_normal(out.data.shape))
    return [out.data] + [leaf.grad for leaf in leaves]


def _assert_same(fused, chain, leaves):
    for got, want in zip(_value_and_grads(fused, leaves), _value_and_grads(chain, leaves)):
        _assert_close(got, want)


class TestAgainstChains:
    @pytest.mark.parametrize("shapes", [((5, 3), (5, 4)), ((6,), (2,)),
                                        ((2, 3, 4, 2, 3), (2, 3, 5, 2, 3)), ((4, 2, 2), (1, 2, 2))],
                             ids=["rows", "vector", "maps", "one-map"])
    @pytest.mark.parametrize("raw", [(0.0, 0.0), (0.9, -0.4), (-8.0, 8.0)])
    def test_fuse_pair(self, shapes, raw):
        rng = np.random.default_rng(1)
        a, b = (t(rng.standard_normal(s), grad=True) for s in shapes)
        w = A.PairFusionWeights(t(raw[0], grad=True), t(raw[1], grad=True))
        _assert_same(lambda a, b, ra, rb: A.fuse_pair(a, b, A.PairFusionWeights(ra, rb)),
                     lambda a, b, ra, rb: chain_fuse_pair(a, b, A.PairFusionWeights(ra, rb)),
                     [a, b, w.raw_a, w.raw_b])

    def test_fuse_pair_of_untracked_blocks(self):
        # blocks that need no gradient still pass one to the raw scalars
        rng = np.random.default_rng(2)
        a, b = t(rng.standard_normal((3, 4))), t(rng.standard_normal((3, 2)))
        ra, rb = t(0.3, grad=True), t(-1.1, grad=True)
        _assert_same(lambda ra, rb: A.fuse_pair(a, b, A.PairFusionWeights(ra, rb)),
                     lambda ra, rb: chain_fuse_pair(a, b, A.PairFusionWeights(ra, rb)), [ra, rb])

    @pytest.mark.parametrize("shape", [(1, 1), (3, 7), (2, 4)])
    def test_attention_weights(self, shape):
        logits = t(np.random.default_rng(3).standard_normal(shape) * 3, grad=True)
        _assert_same(A.attention_weights, chain_attention_weights, [logits])

    @pytest.mark.parametrize("shape", [(1, 2, 3), (3, 8, 5), (2, 5, 3, 2, 2)])
    def test_pair_mean(self, shape):
        # the IMF's mean over pairs, one frame mix
        x = t(np.random.default_rng(4).standard_normal(shape), grad=True)
        pooled = B.pair_maps(shape[1])[-1]
        _assert_same(lambda x: T.mix_frames(x, pooled), chain_pair_mean, [x])

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_forward(self, variant, monkeypatch):
        # logits and the gradient of every parameter, fused against composed
        dims = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                           out_channels=8, sketch_dim=32, n_classes=3)
        params = M.init_params(dims, 0, variant)
        rng = np.random.default_rng(5)
        for _, x in M.named_tensors(params):
            if x.data.ndim == 0:   # off the neutral split
                x.data = np.asarray(rng.standard_normal())
        videos = t(rng.uniform(0, 1, (3, dims.frames, 3, dims.height, dims.width)))
        leaves = [x for _, x, _ in M.trainable_parameters(params)]

        def run():
            for leaf in leaves:
                leaf.grad = None
            with T.Tape() as tape:
                logits = M.forward(videos, params)
                tape.backward(T.cross_entropy(logits, [0, 2, 1]))
            return [logits.data] + [leaf.grad for leaf in leaves]

        fused = run()
        _use_chains(monkeypatch)
        for got, want in zip(fused, run()):
            _assert_close(got, want)


class TestRecordCount:
    """Each attention site and the inter-frame mean are one record, and an
    unbatched feature is reshaped into a batch once."""

    def test_single_clip_branch(self):
        dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                           out_channels=64, sketch_dim=256, n_classes=4)
        params = M.init_params(dims, 0, "full")
        f = t(np.random.default_rng(6).random((8, 64, 6, 6)) * 0.1, grad=True)
        with T.Tape() as tape:
            v = B.extract_actf(B.LowLevelFeature(f), params.actf)
        assert v.data.shape == (64,)
        assert len(tape._records) == 15

    def test_imf_maps(self):
        # the regional IMF of a batch is one record
        f = t(np.random.default_rng(8).random((2, 5, 3, 2, 2)), grad=True)
        with T.Tape() as tape:
            B.extract_imf(B.LowLevelFeature(f))
        assert len(tape._records) == 1

    def test_full_forward(self):
        assert self._forward_records("full") == 19

    def test_forward_per_variant(self):
        # iccf-only never computes the IMF it zeroes, so it records no more than full
        counts = {v: self._forward_records(v) for v in M.VARIANTS}
        assert counts == {"full": 19, "single-actf": 17, "iccf-only": 18,
                          "no-attn": 17, "spatial-only": 6}
        assert counts["iccf-only"] <= counts["full"]

    @staticmethod
    def _forward_records(variant):
        dims = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                           out_channels=8, sketch_dim=32, n_classes=3)
        params = M.init_params(dims, 0, variant)
        videos = t(np.random.default_rng(7).uniform(0, 1, (2, 4, 3, 16, 16)))
        with T.Tape() as tape:
            M.forward(videos, params)
        assert not any(fn.__qualname__.startswith("batch_parallel") for _, _, fn in tape._records)
        return len(tape._records)
