"""Classifier assembly, ablation variants, and checkpoint round-trips."""

import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actf import model as M
from actf import tensor as T
from actf.errors import ConfigError, FormatError, InputError


def tiny_dims(**kw):
    base = dict(frames=4, height=16, width=16, conv1_channels=3,
                out_channels=8, sketch_dim=32, n_classes=3)
    base.update(kw)
    return M.ModelDims(**base)


def t(x, grad=False):
    return T.Tensor(np.asarray(x, dtype=np.float64), requires_grad=grad)


class TestDims:
    def test_derived_widths(self):
        d = tiny_dims()
        assert d.concat_channels == 32 + 8
        assert d.feature_spatial == (4, 4)

    def test_spatial_must_divide(self):
        with pytest.raises(ConfigError):
            tiny_dims(height=18)

    def test_needs_two_frames(self):
        # one frame has no frame pair for the temporal branch
        with pytest.raises(ConfigError, match="at least 2 frames"):
            tiny_dims(frames=1)

    @pytest.mark.parametrize("field", ["frames", "height", "out_channels", "sketch_dim"])
    def test_sizes_within_int32(self, field):
        # int32 sketch tables; C_out + d must fit a checkpoint's u32 dims
        assert getattr(tiny_dims(**{field: 2**31 - 4}), field) == 2**31 - 4
        with pytest.raises(ConfigError, match=f"{field} must be <= 2147483647"):
            tiny_dims(**{field: 2**31 + 4})

    def test_reduction_defaults(self):
        d = tiny_dims()
        assert d.r1 == (32 + 8) // 2
        assert d.r2 == 2 * 8


class TestForward:
    def test_logit_width(self):
        dims = M.ModelDims(frames=8, height=32, width=32, conv1_channels=4,
                           out_channels=8, sketch_dim=16, n_classes=4)
        p = M.init_params(dims, 0, "full")
        videos = t(np.random.default_rng(0)
                   .standard_normal((2, 8, 3, 32, 32)) * 0.1)
        logits = M.forward(videos, p)
        assert logits.data.shape == (2, 4)

    @pytest.mark.parametrize("shape, variant, error, message", [
        ((4, 3, 16, 16), "full", InputError, "expected"),
        ((1, 4, 4, 16, 16), "full", InputError, "expected"),
        ((1, 1, 3, 16, 16), "full", InputError, "at least 2 frames"),
        ((1, 4, 3, 16, 20), "full", InputError, "spatial size"),
        ((1, 4, 3, 16, 16), "everything", ConfigError, "unknown variant"),
    ], ids=["rank", "channels", "one-frame", "spatial", "unknown-variant"])
    def test_refuses_bad_input(self, shape, variant, error, message):
        # a hand-built ModelParams can name any variant; forward checks it too
        p = M.init_params(tiny_dims(), 0, "full")
        p = M.ModelParams(p.dims, p.seed, variant, p.plan, p.tensors)
        with pytest.raises(error, match=message):
            M.forward(t(np.zeros(shape)), p)

    def test_zero_video_zero_biases(self):
        dims = tiny_dims()
        p = M.init_params(dims, 0, "full")
        for name, tensor in M.named_tensors(p):
            if name.endswith(("b1", "b2", "b3", "clf.b")) or name.endswith(".b"):
                tensor.data = np.zeros_like(tensor.data)
        logits = M.forward(t(np.zeros((1, 4, 3, 16, 16))), p)
        np.testing.assert_allclose(logits.data, np.zeros((1, 3)), atol=1e-15)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_backbone_map_is_reduced_once(self, variant, monkeypatch):
        # the branch's IMF and the spatial pool share one spatial mean of the map
        ranks, mean = [], T.mean
        monkeypatch.setattr(T, "mean", lambda x, axes: ranks.append(x.data.ndim) or mean(x, axes))
        M.forward(t(np.random.default_rng(0).uniform(0, 1, (2, 4, 3, 16, 16))),
                  M.init_params(tiny_dims(), 0, variant))
        assert ranks.count(5) == 1

    def test_spatial_only_order_invariant(self):
        dims = tiny_dims()
        p = M.init_params(dims, 1, "spatial-only")
        video = np.random.default_rng(1).standard_normal((1, 4, 3, 16, 16))
        fwd = M.forward(t(video), p).data
        rev = M.forward(t(video[:, ::-1].copy()), p).data
        np.testing.assert_allclose(fwd, rev, atol=1e-12)

    def test_full_is_order_sensitive(self):
        dims = tiny_dims()
        p = M.init_params(dims, 1, "full")
        video = np.random.default_rng(2).standard_normal((1, 4, 3, 16, 16))
        fwd = M.forward(t(video), p).data
        rev = M.forward(t(video[:, ::-1].copy()), p).data
        assert not np.allclose(fwd, rev, atol=1e-8)

    def test_loss_uniform_logits(self):
        val = T.cross_entropy(t(np.zeros((3, 4))), [0, 2, 3])
        assert float(val.data) == pytest.approx(np.log(4.0), abs=1e-12)


class TestBatch:
    @pytest.mark.parametrize("variant", M.VARIANTS)
    @given(n=st.integers(1, 4), seed=st.integers(0, 2**32 - 1), data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_rows_match_single_videos(self, variant, n, seed, data):
        # the batch axis never mixes videos: each row is that video alone,
        # and permuting the batch permutes the rows
        p = M.init_params(tiny_dims(), 2, variant)
        videos = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 4, 3, 16, 16))
        batch = M.forward(t(videos), p).data
        assert batch.shape == (n, 3)
        for i in range(n):
            alone = M.forward(t(videos[i:i + 1]), p).data
            np.testing.assert_allclose(batch[i], alone[0], rtol=0, atol=1e-12)
        perm = data.draw(st.permutations(range(n)))
        np.testing.assert_allclose(M.forward(t(videos[perm]), p).data, batch[perm],
                                   rtol=0, atol=1e-12)


class TestVariants:
    def test_variant_list(self):
        assert set(M.VARIANTS) == {"full", "single-actf", "iccf-only",
                                   "no-attn", "spatial-only"}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigError):
            M.init_params(tiny_dims(), 0, "everything")

    def test_full_vs_single_actf_params(self):
        # same trainable set except the final-fusion scalars and head width
        dims = tiny_dims()
        full = {n for n, _, _ in
                M.trainable_parameters(M.init_params(dims, 0, "full"))}
        single = {n for n, _, _ in
                  M.trainable_parameters(M.init_params(dims, 0, "single-actf"))}
        assert full - single == {"final_fusion.raw_a", "final_fusion.raw_b"}

    def test_no_attn_excludes_attention(self):
        dims = tiny_dims()
        names = {n for n, _, _ in
                 M.trainable_parameters(M.init_params(dims, 0, "no-attn"))}
        assert "attn.proj" not in names
        assert "pair_fusion.raw_a" not in names

    def test_iccf_only_ignores_mean_branch(self):
        # the mean-branch rows of the reduction weights must not affect
        # iccf-only logits
        dims = tiny_dims()
        p = M.init_params(dims, 3, "iccf-only")
        video = t(np.random.default_rng(3).standard_normal((1, 4, 3, 16, 16)))
        a = M.forward(video, p).data.copy()
        d = dims.sketch_dim
        p.tensors["reduction.w1"].data[d:, :] += 1.0
        b = M.forward(video, p).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_no_attn_uses_unit_temporal_weights(self):
        # scrambling the attention projection must not change no-attn logits
        dims = tiny_dims()
        p = M.init_params(dims, 4, "no-attn")
        video = t(np.random.default_rng(4).standard_normal((1, 4, 3, 16, 16)))
        a = M.forward(video, p).data.copy()
        p.actf.attn.data += 2.0
        b = M.forward(video, p).data
        np.testing.assert_allclose(a, b, atol=1e-12)

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_trainable_set_is_what_forward_reaches(self, variant):
        # the table of unreached groups agrees with `forward`: exactly the
        # trainable tensors get a gradient from one taped step
        p = M.init_params(tiny_dims(), 5, variant)
        videos = t(np.random.default_rng(5).uniform(0.0, 1.0, (2, 4, 3, 16, 16)))
        with T.Tape() as tape:
            tape.backward(T.cross_entropy(M.forward(videos, p), [0, 2]))
        reached = [name for name, x in M.named_tensors(p) if x.grad is not None]
        assert [name for name, _, _ in M.trainable_parameters(p)] == reached


class TestDecayFlags:
    def test_biases_and_raw_scalars_exempt(self):
        p = M.init_params(tiny_dims(), 0, "full")
        for name, tensor, decay in M.trainable_parameters(p):
            if "raw" in name or name.endswith((".b", "b1", "b2", "b3")):
                assert not decay, name
            else:
                assert decay, name


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        dims = tiny_dims()
        p = M.init_params(dims, 7, "full")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, p)
        q = M.load_checkpoint(path)
        assert q.variant == p.variant
        assert q.dims == p.dims
        for (na, ta), (nb, tb) in zip(M.named_tensors(p),
                                      M.named_tensors(q)):
            assert na == nb
            # drawn, or widened from the file's 32-bit payload
            assert ta.data.dtype == tb.data.dtype == np.float64, na
            np.testing.assert_array_equal(
                ta.data.astype(np.float32), tb.data.astype(np.float32))

    def test_row_reduction_biases_still_load(self, tmp_path):
        # checkpoints written while the reduction biases were (1, M) rows load
        # by size into (M,) biases and give the same logits
        p = M.init_params(tiny_dims(), 9, "full")
        rng = np.random.default_rng(9)
        biases = tuple(p.tensors[f"reduction.b{i}"] for i in (1, 2, 3))
        for b in biases:
            b.data = rng.standard_normal(b.data.shape)
        M.save_checkpoint(tmp_path / "flat.ckpt", p)
        for b in biases:
            b.data = b.data[None]
        M.save_checkpoint(tmp_path / "row.ckpt", p)
        flat, row = (M.load_checkpoint(tmp_path / f) for f in ("flat.ckpt", "row.ckpt"))
        r = row.tensors
        assert ([r[f"reduction.b{i}"].data.shape for i in (1, 2, 3)]
                == [b.data.shape[1:] for b in biases])
        video = t(rng.uniform(0.0, 1.0, (2, 4, 3, 16, 16)))
        np.testing.assert_array_equal(M.forward(video, row).data, M.forward(video, flat).data)

    def test_fixed_dims_of_older_files_load(self, tmp_path):
        # older files record in_channels, reduce1 and reduce2 in dims at the
        # only values they had; such a file loads and gives the same logits
        p = M.init_params(tiny_dims(), 6, "full")
        M.save_checkpoint(tmp_path / "new.ckpt", p)
        raw = (tmp_path / "new.ckpt").read_bytes()
        meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
        meta = json.loads(raw[10:10 + meta_len])
        meta["dims"].update(in_channels=3, reduce1=0, reduce2=0)
        blob = json.dumps(meta, sort_keys=True).encode()
        (tmp_path / "old.ckpt").write_bytes(
            raw[:6] + np.uint32(len(blob)).tobytes() + blob + raw[10 + meta_len:])
        new, old = (M.load_checkpoint(tmp_path / f) for f in ("new.ckpt", "old.ckpt"))
        assert old.dims == new.dims == p.dims
        video = t(np.random.default_rng(6).uniform(0.0, 1.0, (2, 4, 3, 16, 16)))
        np.testing.assert_array_equal(M.forward(video, old).data, M.forward(video, new).data)

    def test_forward_agrees_after_reload(self, tmp_path):
        dims = tiny_dims()
        p = M.init_params(dims, 8, "full")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, p)
        q = M.load_checkpoint(path)
        # checkpoint payload is f32, so compare against the f32-rounded
        # original
        for (_, ta), (_, tb) in zip(M.named_tensors(p), M.named_tensors(q)):
            ta.data = ta.data.astype(np.float32).astype(np.float64)
        video = t(np.random.default_rng(5).standard_normal((1, 4, 3, 16, 16)))
        np.testing.assert_allclose(M.forward(video, p).data,
                                   M.forward(video, q).data, atol=1e-12)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(FormatError):
            M.load_checkpoint(path)

    def test_missing_tensor_rejected(self, tmp_path):
        # drop the last tensor (clf.b) from both the metadata list and the payload
        from actf.data import tensor_to_bytes

        p = M.init_params(tiny_dims(), 0, "full")
        p.tensors["clf.b"].data = np.full_like(p.tensors["clf.b"].data, 5.0)
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, p)
        raw = path.read_bytes()
        meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
        meta = json.loads(raw[10:10 + meta_len])
        meta["tensors"].remove("clf.b")
        blob = json.dumps(meta, sort_keys=True).encode()
        payload = raw[10 + meta_len:-len(tensor_to_bytes(p.tensors["clf.b"]))]
        path.write_bytes(raw[:6] + np.uint32(len(blob)).tobytes() + blob + payload)
        with pytest.raises(FormatError, match="at byte 10"):
            M.load_checkpoint(path)

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("tensors"),
        lambda m: m.pop("plan"),
        lambda m: m["dims"].update(depth=2),
        lambda m: m["dims"].update(frames="4"),
        lambda m: m["dims"].update(frames=4.0),
        lambda m: m.update(dims=[4, 16]),
        lambda m: m.update(seed="0"),
        lambda m: m.update(tensors=5),
        lambda m: m.update(seed=-1),
    ], ids=["no-tensors", "no-plan", "unknown-dims-field", "str-dims-field",
            "float-dims-field", "dims-not-object", "str-seed", "tensors-not-list",
            "negative-seed"])
    def test_malformed_metadata_rejected(self, tmp_path, edit):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.init_params(tiny_dims(), 0, "full"))
        raw = path.read_bytes()
        meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
        meta = json.loads(raw[10:10 + meta_len])
        edit(meta)
        blob = json.dumps(meta).encode()
        path.write_bytes(raw[:6] + np.uint32(len(blob)).tobytes() + blob + raw[10 + meta_len:])
        with pytest.raises(FormatError, match="at byte 10: malformed checkpoint metadata"):
            M.load_checkpoint(path)

    @staticmethod
    def tiny_claiming(path, dim, plan_key, value):
        """A tiny model's checkpoint whose dims and plan record claim dim = value."""
        M.save_checkpoint(path, M.init_params(tiny_dims(), 0, "full"))
        raw = path.read_bytes()
        meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
        meta = json.loads(raw[10:10 + meta_len])
        meta["dims"][dim] = meta["plan"][plan_key] = value
        blob = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(raw[:6] + np.uint32(len(blob)).tobytes() + blob + raw[10 + meta_len:])
        return path

    def test_claimed_size_checked_before_building(self, tmp_path):
        # A small file whose dims claim C_out 1000 must not make the loader build
        # that model (its C_out^2 sketch table and reduction weights) first.
        path = self.tiny_claiming(tmp_path / "model.ckpt", "out_channels", "input_dim", 1000)
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match="'backbone.w2' has 216 values"):
                M.load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_size_past_index_limits_rejected(self, tmp_path):
        path = self.tiny_claiming(tmp_path / "model.ckpt", "sketch_dim", "output_dim", 2**40)
        with pytest.raises(ConfigError, match="sketch_dim must be <= 2147483647"):
            M.load_checkpoint(path)

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.init_params(tiny_dims(), 0, "full"))
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + np.uint16(2).tobytes() + raw[6:])
        with pytest.raises(FormatError, match="at byte 4: unsupported checkpoint version 2"):
            M.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, M.init_params(tiny_dims(), 0, "full"))
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + b"\x00\x01\x02")
        with pytest.raises(FormatError, match=f"at byte {size}"):
            M.load_checkpoint(path)

    def test_load_draws_no_weights(self, tmp_path, monkeypatch):
        # the loader builds the model from the file's tensors alone
        p = M.init_params(tiny_dims(), 3, "full")
        path = tmp_path / "model.ckpt"
        M.save_checkpoint(path, p)

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a model")

        monkeypatch.setattr(M, "init_params", no_draw)
        q = M.load_checkpoint(path)
        assert [n for n, _ in M.named_tensors(q)] == [n for n, _ in M.named_tensors(p)]
        assert all(x.requires_grad for _, x in M.named_tensors(q))

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_param_shapes_are_the_built_shapes(self, variant):
        p = M.init_params(tiny_dims(), 0, variant)
        assert M.param_shapes(p.dims, variant) == {
            name: t.data.shape for name, t in M.named_tensors(p)}
        assert list(M.param_shapes(p.dims, variant)) == [n for n, _ in M.named_tensors(p)]

    def test_named_tensor_order_stable(self):
        p = M.init_params(tiny_dims(), 0, "full")
        names = [n for n, _ in M.named_tensors(p)]
        assert names[0] == "backbone.w1"
        assert names == sorted(names, key=names.index)
        assert len(names) == len(set(names))


class TestInit:
    # sha256 over (name, float64 bytes) of every tensor, first 16 hex digits:
    # the draws of the per-layer initializers this one-loop init replaced
    DIGESTS = {"full": "b0c950d1c30a5c35", "iccf-only": "b0c950d1c30a5c35",
               "no-attn": "b0c950d1c30a5c35", "single-actf": "fc30e9b1e6019ba2",
               "spatial-only": "fc30e9b1e6019ba2"}

    @pytest.mark.parametrize("variant", M.VARIANTS)
    def test_draws_are_pinned(self, variant):
        h = hashlib.sha256()
        for name, x in M.named_tensors(M.init_params(tiny_dims(n_classes=4), 0, variant)):
            h.update(name.encode())
            h.update(np.asarray(x.data, dtype=np.float64).tobytes())
        assert h.hexdigest()[:16] == self.DIGESTS[variant]
