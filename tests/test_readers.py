"""Damaged files fail at the boundary, as FormatError or ConfigError.

Each test mutates the bytes of a valid file as damage on disk would: one byte
flipped, the file cut short, or four bytes overwritten. The reader must return
or raise one of the two errors that the CLI reports with exit code 2.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actf import data as D
from actf import model as M
from actf.errors import ConfigError, FormatError
from actf.tensor import Tensor

# reader, and the file it reads, relative to the directory of valid files
READERS = {
    "checkpoint": (M.load_checkpoint, "model.ckpt"),
    "tensor": (D.read_tensor, "x.actf"),
    "manifest": (D.load_dataset, "manifest.tsv"),
}


@pytest.fixture(scope="module")
def valid_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("valid")
    dims = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                       out_channels=8, sketch_dim=32, n_classes=4)
    M.save_checkpoint(d / "model.ckpt", M.init_params(dims, 0, "full"))
    D.write_tensor(d / "x.actf", Tensor(np.arange(24.0).reshape(2, 3, 4)))
    D.save_dataset(d, [(Tensor(np.full((2, 3, 4, 4), label)), label) for label in range(3)])
    return d


@st.composite
def mutated(draw, raw: bytes) -> bytes:
    # Headers are a small part of a file: half the draws land in its first 256 bytes.
    at = draw(st.integers(0, min(255, len(raw) - 1)) | st.integers(0, len(raw) - 1))
    how = draw(st.sampled_from(["flip", "truncate", "overwrite"]))
    if how == "truncate":
        return raw[:at]
    b = bytearray(raw)
    if how == "flip":
        b[at] ^= draw(st.integers(1, 255))
    else:
        b[at:at + 4] = draw(st.binary(min_size=4, max_size=4))
    return bytes(b)


# A flipped payload byte can make a signalling NaN, which numpy's cast reports.
@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("reader", sorted(READERS))
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_file_fails_cleanly(valid_dir, reader, data):
    read, name = READERS[reader]
    damaged = valid_dir / f"damaged-{name}"   # beside the valid one: same sample paths
    damaged.write_bytes(data.draw(mutated((valid_dir / name).read_bytes())))
    try:
        read(damaged)
    except (FormatError, ConfigError):
        pass
