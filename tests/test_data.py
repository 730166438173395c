"""Synthetic video tasks and the binary tensor file format."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actf import data as D
from actf._io import atomic_write_bytes
from actf.errors import ConfigError, FormatError
from actf.tensor import Tensor


class TestTasks:
    def test_direction4_counts_and_balance(self):
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=50,
                                        noise=0.02, seed=0))
        assert len(ds) == 200
        labels = np.array([l for _, l in ds])
        for c in range(4):
            assert (labels == c).sum() == 50
        v, _ = ds[0]
        assert v.data.shape == (8, 3, 32, 32)

    def test_determinism(self):
        a = D.generate(D.SyntheticTask(kind="speed2", per_class=3, seed=4))
        b = D.generate(D.SyntheticTask(kind="speed2", per_class=3, seed=4))
        for (va, la), (vb, lb) in zip(a, b):
            assert la == lb
            np.testing.assert_array_equal(va.data, vb.data)

    def test_direction_reversal_multisets(self):
        # left samples are exact temporal reversals of right samples, so
        # per-sample frame multisets agree and only ordering carries class
        task = D.SyntheticTask(kind="direction4", per_class=5, noise=0.0,
                               seed=2)
        ds = D.generate(task)
        right = [v.data for v, l in ds if l == 0]
        left = [v.data for v, l in ds if l == 1]
        for r, lf in zip(right, left):
            np.testing.assert_array_equal(lf, r[::-1])

    def test_up_down_reversal(self):
        ds = D.generate(D.SyntheticTask(kind="direction4", per_class=4,
                                        noise=0.0, seed=3))
        down = [v.data for v, l in ds if l == 2]
        up = [v.data for v, l in ds if l == 3]
        for d_, u in zip(down, up):
            np.testing.assert_array_equal(u, d_[::-1])

    def test_appearance4_is_static(self):
        ds = D.generate(D.SyntheticTask(kind="appearance4", per_class=2,
                                        noise=0.0, seed=5))
        for v, _ in ds:
            for i in range(1, v.data.shape[0]):
                np.testing.assert_array_equal(v.data[i], v.data[0])

    def test_speed2_differs_by_span(self):
        ds = D.generate(D.SyntheticTask(kind="speed2", per_class=2,
                                        noise=0.0, seed=6))
        # fast blobs travel farther; peak displacement separates them
        def span(v):
            m = v.data.sum(axis=1)
            first = np.unravel_index(np.argmax(m[0]), m[0].shape)
            last = np.unravel_index(np.argmax(m[-1]), m[-1].shape)
            return abs(last[0] - first[0]) + abs(last[1] - first[1])
        slow = [span(v) for v, l in ds if l == 0]
        fast = [span(v) for v, l in ds if l == 1]
        assert min(fast) > max(slow)

    def test_mixed8_label_count(self):
        ds = D.generate(D.SyntheticTask(kind="mixed8", per_class=2, seed=7))
        assert sorted({l for _, l in ds}) == list(range(8))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            D.SyntheticTask(kind="jumping3")

    @pytest.mark.parametrize("noise", [-0.1, float("nan"), 10.5])
    def test_bad_noise_rejected(self, noise):
        with pytest.raises(ConfigError, match="noise must be >= 0"):
            D.SyntheticTask(kind="direction4", noise=noise)

    def test_blob_must_fit(self):
        with pytest.raises(ConfigError):
            D.generate(D.SyntheticTask(kind="direction4", height=8,
                                       width=8))

    def test_noise_keyed_by_seed(self):
        a = D.generate(D.SyntheticTask(kind="direction4", per_class=1,
                                       noise=0.1, seed=0))
        b = D.generate(D.SyntheticTask(kind="direction4", per_class=1,
                                       noise=0.1, seed=1))
        assert not np.array_equal(a[0][0].data, b[0][0].data)


class TestTensorFormat:
    def test_scalar_layout(self):
        raw = D.tensor_to_bytes(Tensor(1.0))
        # scalars are stored rank-1 with a single extent: 4 magic + 2
        # version + 2 rank + 4 dim + 4 payload
        assert len(raw) == 16
        assert raw[:4] == b"ACTF"
        version, rank = struct.unpack_from("<HH", raw, 4)
        assert version == 1 and rank == 1
        assert struct.unpack_from("<I", raw, 8)[0] == 1
        assert struct.unpack_from("<f", raw, 12)[0] == 1.0

    def test_empty_dims_rejected(self):
        with pytest.raises(FormatError):
            D.tensor_to_bytes(Tensor(np.zeros((3, 0, 2))))

    def test_round_trip_3x4x5(self):
        x = Tensor(np.random.default_rng(8).standard_normal((3, 4, 5))
                   .astype(np.float32).astype(np.float64))
        raw = D.tensor_to_bytes(x)
        y, _ = D.tensor_from_bytes(raw)
        np.testing.assert_array_equal(x.data, y.data)
        assert D.tensor_to_bytes(y) == raw

    def test_bad_magic_names_offset(self):
        raw = b"JPEG" + D.tensor_to_bytes(Tensor(1.0))[4:]
        with pytest.raises(FormatError, match="byte 0"):
            D.tensor_from_bytes(raw)

    def test_truncated_payload(self):
        raw = D.tensor_to_bytes(Tensor(np.arange(6.0)))[:-3]
        with pytest.raises(FormatError):
            D.tensor_from_bytes(raw)

    def test_truncated_header_names_offset(self):
        raw = b"pad" + D.tensor_to_bytes(Tensor(1.0))[:5]
        with pytest.raises(FormatError, match="at byte 3: truncated header"):
            D.tensor_from_bytes(raw, 3)

    def test_version_mismatch(self):
        raw = bytearray(D.tensor_to_bytes(Tensor(1.0)))
        struct.pack_into("<H", raw, 4, 9)
        with pytest.raises(FormatError):
            D.tensor_from_bytes(bytes(raw))

    @pytest.mark.parametrize("header, message", [
        (struct.pack("<HH", 1, 0), r"at byte 9: empty dims \(rank 0\)"),
        (struct.pack("<HHI", 1, 3, 2), r"at byte 11: truncated dim list \(rank 3\)"),
        (struct.pack("<HHII", 1, 2, 3, 0), r"at byte 11: zero extent in dims \(3, 0\)"),
        # the element count must not wrap in 64 bits: 65536**4 would wrap to 0
        (struct.pack("<HH4I", 1, 4, *[65536] * 4),
         f"at byte 27: truncated payload, need {4 * 65536 ** 4} bytes, have 0"),
        (struct.pack("<HH3I", 1, 3, *[4294967295] * 3),
         f"at byte 23: truncated payload, need {4 * 4294967295 ** 3} bytes, have 0"),
    ], ids=["rank-0", "truncated-dims", "zero-extent", "product-2**64", "product-near-2**96"])
    def test_bad_dims_name_their_byte(self, header, message):
        # three bytes before the tensor: each offset counts from the buffer's start
        with pytest.raises(FormatError, match=message):
            D.tensor_from_bytes(b"pad" + b"ACTF" + header, 3)

    def test_trailing_bytes_name_their_byte(self, tmp_path):
        path = tmp_path / "x.actf"
        path.write_bytes(D.tensor_to_bytes(Tensor(1.0)) + b"xy")
        with pytest.raises(FormatError, match="at byte 16: 2 trailing bytes"):
            D.read_tensor(path)

    def test_failed_write_keeps_target(self, tmp_path):
        # a write that fails leaves the old file as it was and no temp file
        path = tmp_path / "x.actf"
        path.write_bytes(b"old")
        with pytest.raises(TypeError):
            atomic_write_bytes(path, "not bytes")
        assert path.read_bytes() == b"old"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.actf"]

    def test_file_round_trip(self, tmp_path):
        x = Tensor(np.random.default_rng(9).standard_normal((2, 7))
                   .astype(np.float32).astype(np.float64))
        path = tmp_path / "x.actf"
        D.write_tensor(path, x)
        y = D.read_tensor(path)
        np.testing.assert_array_equal(x.data, y.data)

    @given(st.lists(st.integers(1, 5), min_size=1, max_size=4),
           st.integers(0, 2 ** 31))
    @settings(max_examples=40, deadline=None)
    def test_round_trip_property(self, shape, seed):
        x = Tensor(np.random.default_rng(seed)
                   .standard_normal(tuple(shape))
                   .astype(np.float32).astype(np.float64))
        y, consumed = D.tensor_from_bytes(D.tensor_to_bytes(x))
        np.testing.assert_array_equal(x.data, y.data)
        assert y.data.shape == x.data.shape


class TestDatasetFiles:
    def test_save_load_round_trip(self, tmp_path):
        ds = D.generate(D.SyntheticTask(kind="speed2", per_class=2,
                                        noise=0.01, seed=10))
        manifest = D.save_dataset(tmp_path, ds)
        back = D.load_dataset(manifest)
        assert len(back) == len(ds)
        for (va, la), (vb, lb) in zip(ds, back):
            assert la == lb
            np.testing.assert_array_equal(
                va.data.astype(np.float32), vb.data.astype(np.float32))

    def test_empty_manifest_rejected(self, tmp_path):
        manifest = tmp_path / "manifest.tsv"
        manifest.write_text("\n")
        with pytest.raises(FormatError, match="no records"):
            D.load_dataset(manifest)

    @pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
    def test_non_finite_sample_rejected(self, tmp_path, value):
        ds = D.generate(D.SyntheticTask(kind="speed2", per_class=1, seed=10))
        ds[1][0].data[0, 0, 0, 0] = value
        manifest = D.save_dataset(tmp_path, ds)
        with pytest.raises(FormatError,
                           match="manifest line 2: sample_00001.actf holds non-finite values"):
            D.load_dataset(manifest)
