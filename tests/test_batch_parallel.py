"""Data-parallel forward: per-thread tapes, shards that agree with one batch,
and numpy's OpenBLAS left as it was found."""

import sys
import threading

import numpy as np
import pytest

from actf import model as M
from actf import tensor as T
from actf import train as TR

DIMS = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                   out_channels=8, sketch_dim=32, n_classes=4)

needs_sharding = pytest.mark.skipif(not T._sharding(),
                                    reason="no OpenBLAS that can be parked, or one core")


@pytest.fixture
def layer_calls(monkeypatch):
    """Each backbone layer call as (thread, frames in its batch, OpenBLAS threads)."""
    calls, conv = [], T.conv_relu_pool

    def recorded(x, w, b):
        blas = T._sharding() and T._sharding()[0].get_num_threads()
        calls.append((threading.current_thread(), x.data.shape[0], blas))
        return conv(x, w, b)

    monkeypatch.setattr(T, "conv_relu_pool", recorded)
    return calls


def _videos(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0, 1, (n, DIMS.frames, 3, DIMS.height, DIMS.width))


def _step(params, videos, labels):
    """Logits and every parameter gradient of one taped step."""
    for t in params.tensors.values():
        t.grad = None
    with T.Tape() as tape:
        logits = M.forward(T.Tensor(videos), params)
        tape.backward(T.cross_entropy(logits, labels))
    return logits.data, {name: t.grad for name, t in params.tensors.items()}


def _rel(a, b):
    return float(np.max(np.abs(a - b))) / max(float(np.max(np.abs(b))), 1e-300)


def test_tape_records_only_its_own_thread():
    x = T.Tensor(np.ones(3), requires_grad=True)
    seen = {}

    def other():
        seen["tape"] = T.active_tape()
        T.add(x, x)
        with T.Tape() as inner:           # no tape is active in this thread
            T.add(x, x)
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
    # eight threads on two cores, each taping 200 adds of its own leaf
    ops, grads, records = 200, {}, {}

    def work(i):
        x = T.Tensor(np.full(3, float(i)), requires_grad=True)
        with T.Tape() as tape:
            y = x
            for _ in range(ops):
                y = T.add(y, x)
            records[i] = len(tape._records)
            tape.backward(T.reshape(T.matmul(T.reshape(y, (1, 3)), T.Tensor(np.ones((3, 1)))), ()))
        grads[i] = x.grad

    _run_threads(work, 8, 1e-6)
    assert records == {i: ops for i in range(8)}
    for i in range(8):
        np.testing.assert_array_equal(grads[i], np.full(3, ops + 1.0))


@needs_sharding
def test_concurrent_sharded_forwards(monkeypatch):
    # callers on four threads: each gets its own logits, and OpenBLAS its thread count back
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", 1)
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


@needs_sharding
@pytest.mark.parametrize("variant", M.VARIANTS)
def test_shards_match_one_batch(variant, monkeypatch, layer_calls):
    params = M.init_params(DIMS, 3, variant)
    videos, labels = _videos(4), np.array([0, 1, 2, 3])
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", videos.size)
    z1, g1 = _step(params, videos, labels)
    assert {n for _, n, _ in layer_calls} == {4 * DIMS.frames}
    layer_calls.clear()
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", 1)
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


@needs_sharding
def test_sharded_fit_is_deterministic(tmp_path, monkeypatch):
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", 1)
    rng = np.random.default_rng(5)
    data = [(T.Tensor(v), int(rng.integers(DIMS.n_classes))) for v in _videos(12, seed=5)]
    cfg = TR.TrainConfig(lr0=0.05, epochs=2, batch_size=6, seed=1)
    blobs = []
    for run in range(2):
        params = M.init_params(DIMS, 1, "full")
        TR.fit(params, data, cfg)
        M.save_checkpoint(tmp_path / f"{run}.ckpt", params)
        blobs.append((tmp_path / f"{run}.ckpt").read_bytes())
    assert blobs[0] == blobs[1]


@needs_sharding
def test_sharded_forward_raises_under_the_callers_errstate(monkeypatch, layer_calls):
    params = M.init_params(DIMS, 0, "full")
    videos = T.Tensor(np.full((4, DIMS.frames, 3, DIMS.height, DIMS.width), 1e300))
    for floor in (videos.data.size, 1):
        monkeypatch.setattr(T, "MIN_SHARD_VALUES", floor)
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            M.forward(videos, params)
    assert any(thread is not threading.current_thread() for thread, _, _ in layer_calls)


@needs_sharding
def test_openblas_threads_are_restored(monkeypatch, layer_calls):
    blas = T._sharding()[0]
    before = blas.get_num_threads()
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", 1)
    blas.set_num_threads(2)
    try:
        _step(M.init_params(DIMS, 0, "full"), _videos(4), np.array([0, 1, 2, 3]))
        assert blas.get_num_threads() == 2
    finally:
        blas.set_num_threads(before)
    # Every layer's forward ran with OpenBLAS parked at one thread.
    assert {threads for _, _, threads in layer_calls} == {1}


def test_without_openblas_forward_runs_one_shard(monkeypatch, layer_calls):
    params = M.init_params(DIMS, 0, "full")
    videos = T.Tensor(_videos(4))
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", videos.data.size)
    expected = M.forward(videos, params).data
    monkeypatch.setattr(T, "_SHARDING", None)
    monkeypatch.setattr(T, "_find_openblas", lambda: None)
    monkeypatch.setattr(T, "MIN_SHARD_VALUES", 1)
    layer_calls.clear()
    np.testing.assert_array_equal(M.forward(videos, params).data, expected)
    assert T._sharding() is False
    assert [(thread, n) for thread, n, _ in layer_calls] == [
        (threading.current_thread(), 4 * DIMS.frames)] * 2
