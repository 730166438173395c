"""Data-parallel forward: per-thread tapes, shards that agree with one batch,
weights that do not depend on the core count, and numpy's OpenBLAS left as it
was found."""

import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from actf import data as D
from actf import model as M
from actf import tensor as T
from actf import train as TR

DIMS = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                   out_channels=8, sketch_dim=32, n_classes=4)

needs_openblas = pytest.mark.skipif(T._find_openblas() is None,
                                    reason="no OpenBLAS that can be parked")

# The model's shard floor that makes a batch of 4 DIMS videos two shards.
TWO_OF_FOUR = 2 * M.video_work(DIMS, DIMS.frames)


@pytest.fixture
def layer_calls(monkeypatch):
    """Each backbone layer call as (thread, frames in its batch, OpenBLAS threads)."""
    calls, conv = [], T.conv_relu_pool

    def recorded(x, w, b):
        blas = T._sharding()[0]
        calls.append((threading.current_thread(), x.data.shape[0],
                      blas and blas.get_num_threads()))
        return conv(x, w, b)

    monkeypatch.setattr(T, "conv_relu_pool", recorded)
    return calls


@pytest.fixture
def fresh_sharding(monkeypatch):
    """Make ``_sharding`` look OpenBLAS and the cores up again, as a new process
    would, under whatever the test has patched; its pools are shut down after."""
    pools = []

    def fresh():
        monkeypatch.setattr(T, "_SHARDING", None)
        pools.append(T._sharding()[1])

    yield fresh
    for pool in pools:
        pool.shutdown()


def _videos(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, DIMS.frames, 3, DIMS.height, DIMS.width))


def _step(params, videos, labels):
    """Logits and every gradient of one taped step: each parameter's by name,
    and the videos' as "videos"."""
    for t in params.tensors.values():
        t.grad = None
    x = T.Tensor(videos, requires_grad=True)
    with T.Tape() as tape:
        logits = M.forward(x, params)
        tape.backward(T.cross_entropy(logits, labels))
    return logits.data, {"videos": x.grad, **{name: t.grad for name, t in params.tensors.items()}}


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def test_tape_records_only_its_own_thread():
    x = T.Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def other():
        seen["tape"] = T.active_tape()
        T.relu(x)
        with T.Tape() as inner:           # no tape is active in this thread
            T.relu(x)
        seen["inner"] = len(inner._records)

    with T.Tape() as tape:
        worker = threading.Thread(target=other)
        worker.start()
        worker.join()
        assert tape._records == []
        with pytest.raises(RuntimeError, match="already active"):
            T.Tape().__enter__()
    assert seen == {"tape": None, "inner": 1}


def _run_threads(target, n, switch_interval):
    """target(i) on n threads at once, under a short interpreter switch interval."""
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(switch_interval)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)


def test_tapes_of_many_threads_stay_apart():
    # eight threads on two cores, each taping 200 concatenations of its own leaf
    ops, grads, records = 200, {}, {}

    def work(i):
        x = T.Tensor(np.full(3, float(i)), requires_grad=True)
        with T.Tape() as tape:
            y = x
            for _ in range(ops):
                y = T.concat_channels(y, x)
            records[i] = len(tape._records)
            tape.backward(y, np.ones(y.data.shape))
        grads[i] = x.grad

    _run_threads(work, 8, 1e-6)
    assert records == {i: ops for i in range(8)}
    for i in range(8):
        np.testing.assert_array_equal(grads[i], np.full(3, ops + 1.0))


@needs_openblas
def test_concurrent_sharded_forwards(monkeypatch):
    # callers on four threads: each gets its own logits, and OpenBLAS its thread count back
    monkeypatch.setattr(M, "WORK_PER_SHARD", TWO_OF_FOUR)
    blas = T._sharding()[0]
    before = blas.get_num_threads()
    params = M.init_params(DIMS, 0, "full")
    batches = [_videos(4, seed=s) for s in range(4)]
    expected = [M.forward(T.Tensor(v), params).data for v in batches]
    logits = {}

    def work(i):
        logits[i] = [M.forward(T.Tensor(batches[i]), params).data for _ in range(5)]

    _run_threads(work, 4, 1e-5)
    for i in range(4):
        for z in logits[i]:
            np.testing.assert_array_equal(z, expected[i])
    assert blas.get_num_threads() == before


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_shards_match_one_batch(variant, monkeypatch, layer_calls):
    params = M.init_params(DIMS, 3, variant)
    videos, labels = _videos(4), np.array([0, 1, 2, 3])
    z1, g1 = _step(params, videos, labels)
    assert {n for _, n, _ in layer_calls} == {4 * DIMS.frames}
    layer_calls.clear()
    monkeypatch.setattr(M, "WORK_PER_SHARD", TWO_OF_FOUR)
    z2, g2 = _step(params, videos, labels)
    # Two shards of two videos, each through both layers, on pool threads.
    assert [n for _, n, _ in layer_calls] == [2 * DIMS.frames] * 4
    assert threading.current_thread() not in {thread for thread, _, _ in layer_calls}
    assert _rel(z2, z1) <= 1e-12
    assert g1.keys() == g2.keys()
    for name in g1:
        assert (g1[name] is None) == (g2[name] is None), name
        if g1[name] is not None:
            assert _rel(g2[name], g1[name]) <= 1e-12, name


@pytest.mark.parametrize("variant", M.VARIANTS)
def test_float32_videos_step_as_float64_ones(variant, monkeypatch, layer_calls):
    # the first layer's float64 im2col widens a float32 batch exactly: its
    # logits and gradients, the videos' too, are float64 and bit-identical,
    # at one shard and two
    params = M.init_params(DIMS, 3, variant)
    videos, labels = _videos(4).astype(np.float32), np.array([0, 1, 2, 3])
    for floor, frames in ((M.WORK_PER_SHARD, 4 * DIMS.frames), (TWO_OF_FOUR, 2 * DIMS.frames)):
        monkeypatch.setattr(M, "WORK_PER_SHARD", floor)
        layer_calls.clear()
        z32, g32 = _step(params, videos, labels)
        assert {n for _, n, _ in layer_calls} == {frames}
        z64, g64 = _step(params, videos.astype(np.float64), labels)
        assert z32.dtype == np.float64 and z32.tobytes() == z64.tobytes()
        for name, g in g32.items():
            assert (g is None) == (g64[name] is None), name
            if g is not None:
                assert g.dtype == np.float64 and g.tobytes() == g64[name].tobytes(), name


def test_sharded_fit_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setattr(M, "WORK_PER_SHARD", 1)
    rng = np.random.default_rng(5)
    data = [(T.Tensor(v), int(rng.integers(DIMS.n_classes))) for v in _videos(12, seed=5)]
    cfg = TR.TrainConfig(lr0=0.05, epochs=2, batch_size=6, seed=1)
    blobs = []
    for run in range(2):
        params = M.init_params(DIMS, 1, "full")
        TR.fit(params, data, cfg)
        M.save_checkpoint(tmp_path / f"{run}.ckpt", params)
        blobs.append((tmp_path / f"{run}.ckpt").read_bytes() + _weight_bytes(params))
    assert blobs[0] == blobs[1]


def test_sharded_forward_raises_under_the_callers_errstate(monkeypatch, layer_calls):
    params = M.init_params(DIMS, 0, "full")
    videos = T.Tensor(np.full((4, DIMS.frames, 3, DIMS.height, DIMS.width), 1e300))
    for floor in (M.WORK_PER_SHARD, TWO_OF_FOUR):
        monkeypatch.setattr(M, "WORK_PER_SHARD", floor)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            M.forward(videos, params)
    assert any(thread is not threading.current_thread() for thread, _, _ in layer_calls)


def test_sharded_backward_raises_under_the_callers_errstate():
    # the forward is finite, but a shard's gradient of s sums its rows of x,
    # two or four 1e308s: the sweep overflows on the thread that runs it, and
    # raises only where the caller asks
    x = T.Tensor(np.full((4, 1), 1e308))
    s = T.Tensor(np.asarray(1e-300), requires_grad=True)

    def step(shards):
        s.grad = None
        with T.Tape() as tape:
            out = T.batch_parallel(lambda xs, ls: T.scale(xs, ls["s"]), x, {"s": s}, shards)
            tape.backward(out, np.ones((4, 1)))

    for shards in (1, 2):
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            step(shards)
        with np.errstate(over="ignore"):
            step(shards)
        assert s.grad == np.inf


@needs_openblas
def test_openblas_threads_are_restored(monkeypatch, layer_calls):
    blas = T._sharding()[0]
    before = blas.get_num_threads()
    monkeypatch.setattr(M, "WORK_PER_SHARD", TWO_OF_FOUR)
    blas.set_num_threads(2)
    try:
        _step(M.init_params(DIMS, 0, "full"), _videos(4), np.array([0, 1, 2, 3]))
        assert blas.get_num_threads() == 2
    finally:
        blas.set_num_threads(before)
    # Every layer's forward ran with OpenBLAS parked at one thread.
    assert {threads for _, _, threads in layer_calls} == {1}


def test_without_openblas_the_same_shards_run_one_at_a_time(monkeypatch, layer_calls,
                                                            fresh_sharding):
    params = M.init_params(DIMS, 0, "full")
    videos, labels = _videos(4), np.array([0, 1, 2, 3])
    monkeypatch.setattr(M, "WORK_PER_SHARD", TWO_OF_FOUR)
    z1, g1 = _step(params, videos, labels)
    monkeypatch.setattr(T, "_find_openblas", lambda: None)
    fresh_sharding()
    layer_calls.clear()
    z2, g2 = _step(params, videos, labels)
    blas, pool = T._sharding()
    assert blas is None and pool._max_workers == 1
    # The two shards of two videos ran through both layers on the one worker.
    assert [n for _, n, _ in layer_calls] == [2 * DIMS.frames] * 4
    assert len({thread for thread, _, _ in layer_calls} - {threading.current_thread()}) == 1
    np.testing.assert_array_equal(z2, z1)
    for name in g1:
        np.testing.assert_array_equal(g2[name], g1[name], err_msg=name)


def _weight_bytes(params):
    """Every tensor's float64 bytes: a checkpoint rounds them to 32 bits, which
    can hide a difference in the last bits for many steps."""
    return b"".join(t.data.tobytes() for t in params.tensors.values())


# The default dims of `actf train`, and a script that trains one epoch of them
# on two 16-video batches and prints the sha256 of the weights' bytes.
DEFAULT_DIMS = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                           out_channels=64, sketch_dim=256, n_classes=4)
FIT_SCRIPT = """
import hashlib, os, sys
os.sched_setaffinity(0, {cores})
from actf import data as D, model as M, train as TR
dims = M.ModelDims(frames=8, height=24, width=24, conv1_channels=8,
                   out_channels=64, sketch_dim=256, n_classes=4)
data = D.generate(D.SyntheticTask(kind="direction4", per_class=8, height=24, width=24,
                                  noise=0.02, seed=0))
params = M.init_params(dims, 0, "full")
TR.fit(params, data, TR.TrainConfig(lr0=0.05, epochs=1, batch_size=16, seed=0))
print(hashlib.sha256(b"".join(t.data.tobytes() for t in params.tensors.values())).hexdigest())
"""


def test_weights_do_not_depend_on_the_core_count(monkeypatch, layer_calls, fresh_sharding):
    data = D.generate(D.SyntheticTask(kind="direction4", per_class=8, height=24, width=24,
                                      noise=0.02, seed=0))
    blobs = []
    for cores in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        fresh_sharding()
        blas, pool = T._sharding()
        assert pool._max_workers == (len(cores) if blas else 1)
        params = M.init_params(DEFAULT_DIMS, 0, "full")
        TR.fit(params, data, TR.TrainConfig(lr0=0.05, epochs=1, batch_size=16, seed=0))
        blobs.append(_weight_bytes(params))
    assert blobs[0] == blobs[1]
    # Every 16-video batch ran as two shards of eight.
    assert {n for _, n, _ in layer_calls} == {8 * DEFAULT_DIMS.frames}


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="needs at least 2 cores to pin a process to 1 and to 2")
def test_weights_do_not_depend_on_the_pinned_cores():
    first, second = sorted(os.sched_getaffinity(0))[:2]
    env = dict(os.environ, PYTHONPATH=str(Path(M.__file__).parents[1]))
    hashes = [subprocess.run([sys.executable, "-c", FIT_SCRIPT.format(cores=cores)], env=env,
                             capture_output=True, text=True, check=True, timeout=300).stdout
              for cores in ({first}, {first, second})]
    assert len(hashes[0]) == 65 and hashes[0] == hashes[1]
