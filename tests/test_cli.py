"""End-to-end command-line tests on miniature configurations."""

import json
import os
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from actf import check as C
from actf import cli
from actf import data as D
from actf import model as M
from actf.tensor import Tensor


TINY = {
    "task": "direction4",
    "frames": 4,
    "height": 16,
    "width": 16,
    "train_per_class": 2,
    "eval_per_class": 2,
    "noise": 0.0,
    "conv1_channels": 3,
    "out_channels": 8,
    "sketch_dim": 32,
    "epochs": 1,
    "batch_size": 4,
    "lr0": 0.01,
    "seed": 0,
}


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def test_train_writes_outputs(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    rc = cli.main(["train", "--config", tiny_cfg, "--out", out])
    assert rc == 0
    for name in ("checkpoint.ckpt", "train_report.tsv", "metrics.tsv"):
        assert os.path.exists(os.path.join(out, name)), name
    for name, columns in (("metrics.tsv", ["variant", "train_acc", "eval_acc"]),
                          ("train_report.tsv", ["epoch", "lr", "loss", "train_acc", "eval_acc"])):
        lines = open(os.path.join(out, name)).read().splitlines()
        assert lines[0].startswith("# config_hash="), name
        assert lines[1] == "# seed=0", name
        assert lines[2].split("\t") == columns, name
        assert len(lines) == 4, name   # one variant; one epoch


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_divergence_exits_one(tmp_path, tiny_cfg, capsys):
    # no-attn at this learning rate reaches a NaN loss in its second epoch; the
    # message names the first batch with a non-finite gradient and its tensor
    out = tmp_path / "out"
    rc = cli.main(["train", "--config", tiny_cfg, "--out", str(out), "--variant", "no-attn",
                   "--lr0", "1e6", "--epochs", "2"])
    assert rc == 1
    assert ("training diverged: non-finite gradient of backbone.w1 at epoch 1, batch 1"
            in capsys.readouterr().err)
    rows = (out / "train_report.tsv").read_text().splitlines()[3:]
    assert [r.split("\t")[2] for r in rows][1:] == ["nan"]
    assert not (out / "checkpoint.ckpt").exists()
    assert not (out / "metrics.tsv").exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_train_weights_that_overflow_32_bits_exit_one(tmp_path, capsys):
    # one minibatch at this learning rate leaves the loss, every gradient and
    # every 64-bit weight finite, but the weights overflow the checkpoint's
    # 32-bit payload; the first such tensor in named_tensors order is named
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**TINY, "train_per_class": 1, "lr0": 1e308}))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert ("training diverged: backbone.w1 is not finite in 32 bits; no checkpoint written"
            in capsys.readouterr().err)
    rows = (out / "train_report.tsv").read_text().splitlines()[3:]
    assert len(rows) == 1 and np.isfinite(float(rows[0].split("\t")[2]))
    assert not (out / "checkpoint.ckpt").exists()
    assert not (out / "metrics.tsv").exists()


def test_train_eval_acc_is_the_checkpoints(tmp_path, tiny_cfg):
    # metrics.tsv scores the weights as stored (f32): `eval` on the
    # checkpoint reproduces its eval_acc exactly
    out = tmp_path / "out"
    assert cli.main(["train", "--config", tiny_cfg, "--out", str(out), "--epochs", "2"]) == 0
    metrics = (out / "metrics.tsv").read_text().splitlines()
    eval_acc = metrics[3].split("\t")[metrics[2].split("\t").index("eval_acc")]
    ev = tmp_path / "ev"
    assert cli.main(["eval", "--config", tiny_cfg, "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--out", str(ev)]) == 0
    rows = [r.split("\t") for r in (ev / "per_class_accuracy.tsv").read_text().splitlines()[3:]]
    correct, n = sum(int(r[2]) for r in rows), sum(int(r[1]) for r in rows)
    assert f"{correct / n:.10g}" == eval_acc


def test_train_zero_epochs_checkpoint_is_init(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    rc = cli.main(["train", "--config", tiny_cfg, "--out", out,
                   "--epochs", "0"])
    assert rc == 0
    loaded = M.load_checkpoint(os.path.join(out, "checkpoint.ckpt"))
    dims = M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                       out_channels=8, sketch_dim=32, n_classes=4)
    init = M.init_params(dims, 0, "full")
    for (na, ta), (nb, tb) in zip(M.named_tensors(init),
                                  M.named_tensors(loaded)):
        assert na == nb
        np.testing.assert_array_equal(ta.data.astype(np.float32),
                                      tb.data.astype(np.float32))


def test_train_determinism_byte_identical(tmp_path, tiny_cfg, monkeypatch):
    # the files, and the float64 weights that the 32-bit checkpoint rounds
    outs, weights, save = [], [], M.save_checkpoint

    def keep_weights(path, params):
        weights.append({name: t.data.tobytes() for name, t in M.named_tensors(params)})
        save(path, params)

    monkeypatch.setattr(M, "save_checkpoint", keep_weights)
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
        outs.append(out)
    for name in ("metrics.tsv", "train_report.tsv", "checkpoint.ckpt"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name
    assert len(weights) == 2 and weights[0] == weights[1]


def test_flag_overrides_config(tmp_path, tiny_cfg):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out_a]) == 0
    assert cli.main(["train", "--config", tiny_cfg, "--out", out_b,
                     "--seed", "3"]) == 0
    hash_a = open(os.path.join(out_a, "metrics.tsv")).readline()
    hash_b = open(os.path.join(out_b, "metrics.tsv")).readline()
    assert hash_a != hash_b


def test_eval_from_checkpoint(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
    eval_out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--checkpoint",
                   os.path.join(out, "checkpoint.ckpt"),
                   "--config", tiny_cfg, "--out", eval_out])
    assert rc == 0
    acc = open(os.path.join(eval_out, "per_class_accuracy.tsv")).read()
    assert acc.splitlines()[2].split("\t")[0] == "class"
    fw = open(os.path.join(eval_out, "fusion_weights.tsv")).read()
    rows = [l.split("\t") for l in fw.splitlines()[3:]]
    # delta and epsilon are post-softmax, so each row sums to 1
    for r in rows:
        assert float(r[3]) + float(r[4]) == pytest.approx(1.0, abs=1e-9)


def test_eval_reports_no_split_without_final_fusion(tmp_path, tiny_cfg):
    # single-actf classifies its temporal vector alone: no fusion weights to report
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--variant", "single-actf",
                     "--out", out]) == 0
    eval_out = str(tmp_path / "eval")
    assert cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                     "--config", tiny_cfg, "--out", eval_out]) == 0
    rows = [l.split("\t") for l in
            open(os.path.join(eval_out, "fusion_weights.tsv")).read().splitlines()[3:]]
    assert len(rows) == 4 * TINY["eval_per_class"]
    assert all(r[3] == r[4] == "nan" for r in rows)


def test_eval_scores_held_out_task(tmp_path, tiny_cfg, monkeypatch):
    # eval regenerates the task that train held out, not the training set
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
    generated = []
    generate = D.generate
    monkeypatch.setattr(D, "generate", lambda task: generated.append(task) or generate(task))
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                   "--config", tiny_cfg, "--out", str(tmp_path / "ev")])
    assert rc == 0
    train_task, eval_task, _, _ = cli._build_experiment(
        {**cli._EXPERIMENT_DEFAULTS, **TINY})
    assert generated == [eval_task]
    assert eval_task.seed != train_task.seed


def test_eval_seed_defaults_to_the_checkpoints(tmp_path, monkeypatch):
    # trained with --seed 1 and a config without a seed, a bare eval scores
    # the held-out task of seed 1, not the training set of seed 0 + 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({k: v for k, v in TINY.items() if k != "seed"}))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out), "--seed", "1"]) == 0
    metrics = (out / "metrics.tsv").read_text().splitlines()
    eval_acc = metrics[3].split("\t")[metrics[2].split("\t").index("eval_acc")]
    generated = []
    generate = D.generate
    monkeypatch.setattr(D, "generate", lambda task: generated.append(task) or generate(task))
    ev = tmp_path / "ev"
    assert cli.main(["eval", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.ckpt"),
                     "--out", str(ev)]) == 0
    _, eval_task, _, _ = cli._build_experiment({**cli._EXPERIMENT_DEFAULTS, **TINY, "seed": 1})
    assert generated == [eval_task]
    rows = [r.split("\t") for r in (ev / "per_class_accuracy.tsv").read_text().splitlines()[3:]]
    correct, n = sum(int(r[2]) for r in rows), sum(int(r[1]) for r in rows)
    assert f"{correct / n:.10g}" == eval_acc


def test_eval_refuses_bad_checkpoint(tmp_path, tiny_cfg, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
    ckpt = os.path.join(out, "checkpoint.ckpt")
    with open(ckpt, "ab") as f:
        f.write(b"\x00")
    rc = cli.main(["eval", "--checkpoint", ckpt, "--config", tiny_cfg,
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "trailing bytes" in capsys.readouterr().err


def test_eval_refuses_truncated_checkpoint(tmp_path, tiny_cfg, capsys):
    ckpt = tmp_path / "short.ckpt"
    ckpt.write_bytes(b"ACKP\x01")
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--config", tiny_cfg,
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "at byte 0: truncated checkpoint header" in capsys.readouterr().err


@pytest.mark.parametrize("raw", [
    b"ACKP\x01\x00\x02\x00\x00\x00\xff\xff",   # metadata not UTF-8
    b"ACKP\x01\x00\x02\x00\x00\x00{}",           # no dims
    b"ACKP\x01\x00\x05\x00\x00\x00[1,2]",        # not a JSON object
])
def test_eval_refuses_malformed_metadata(tmp_path, tiny_cfg, capsys, raw):
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_bytes(raw)
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--config", tiny_cfg,
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "at byte 10: malformed checkpoint metadata" in capsys.readouterr().err


@pytest.mark.parametrize("field, value", [("reduce1", 5), ("in_channels", 1)])
def test_eval_refuses_other_value_of_fixed_dims(tmp_path, tiny_cfg, capsys, field, value):
    # older files record in_channels 3, reduce1 0 and reduce2 0; any other value is malformed
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out, "--epochs", "0"]) == 0
    ckpt = pathlib.Path(out) / "checkpoint.ckpt"
    raw = ckpt.read_bytes()
    meta_len = int(np.frombuffer(raw[6:10], dtype="<u4")[0])
    meta = json.loads(raw[10:10 + meta_len])
    meta["dims"][field] = value
    blob = json.dumps(meta, sort_keys=True).encode()
    ckpt.write_bytes(raw[:6] + np.uint32(len(blob)).tobytes() + blob + raw[10 + meta_len:])
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--config", tiny_cfg,
                     "--out", str(tmp_path / "ev")]) == 2
    assert "at byte 10: malformed checkpoint metadata" in capsys.readouterr().err


def test_eval_refuses_tensor_of_wrong_size(tmp_path, tiny_cfg, capsys):
    # a checkpoint whose last tensor, clf.b, has one value too many
    from actf.data import tensor_to_bytes

    params = M.init_params(M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                                       out_channels=8, sketch_dim=32, n_classes=4), 0)
    params.tensors["clf.b"].data = np.zeros(5)
    ckpt = tmp_path / "big.ckpt"
    M.save_checkpoint(ckpt, params)
    start = ckpt.stat().st_size - len(tensor_to_bytes(params.tensors["clf.b"]))
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--config", tiny_cfg,
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert f"at byte {start}: checkpoint tensor 'clf.b' has 5 values" in capsys.readouterr().err


def test_eval_refuses_non_finite_checkpoint_tensor(tmp_path, tiny_cfg, capsys):
    from actf.data import tensor_to_bytes

    params = M.init_params(M.ModelDims(frames=4, height=16, width=16, conv1_channels=3,
                                       out_channels=8, sketch_dim=32, n_classes=4), 0)
    params.tensors["clf.b"].data[1] = np.nan
    ckpt = tmp_path / "nan.ckpt"
    M.save_checkpoint(ckpt, params)
    start = ckpt.stat().st_size - len(tensor_to_bytes(params.tensors["clf.b"]))
    rc = cli.main(["eval", "--checkpoint", str(ckpt), "--config", tiny_cfg,
                   "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert f"at byte {start}: checkpoint tensor 'clf.b' holds non-finite values" \
        in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ev")


@pytest.mark.parametrize("raw, message", [
    (D.tensor_to_bytes(Tensor(np.full((4, 3, 16, 16), np.nan))),
     "manifest line 1: sample_00000.actf holds non-finite values"),
    (b"ACTF" + np.array([1, 4], "<u2").tobytes() + np.full(4, 65536, "<u4").tobytes(),
     f"at byte 24: truncated payload, need {4 * 65536 ** 4} bytes, have 0"),
], ids=["nan-sample", "dims-product-2**64"])
def test_eval_refuses_bad_manifest_sample(tmp_path, tiny_cfg, capsys, raw, message):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out, "--epochs", "0"]) == 0
    ds = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=16,
                                    width=16, per_class=1, seed=9))
    manifest = D.save_dataset(tmp_path / "data", ds)
    (tmp_path / "data" / "sample_00000.actf").write_bytes(raw)
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                   "--manifest", manifest, "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ev")


def test_eval_manifest_round_trip(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
    ds = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=16,
                                    width=16, per_class=2, seed=9))
    manifest = D.save_dataset(tmp_path / "data", ds)
    rc = cli.main(["eval", "--checkpoint",
                   os.path.join(out, "checkpoint.ckpt"),
                   "--manifest", manifest, "--out", str(tmp_path / "ev")])
    assert rc == 0


@pytest.mark.parametrize("flag, value", [("--config", None), ("--task", "direction4"),
                                         ("--noise", "0.0"), ("--seed", "0")],
                         ids=["config", "task", "noise", "seed"])
def test_eval_manifest_refuses_task_flags(tmp_path, tiny_cfg, capsys, flag, value):
    # the manifest names the data: a flag that picks a synthetic task is a usage error
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out, "--epochs", "0"]) == 0
    ds = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=16,
                                    width=16, per_class=1, seed=9))
    manifest = D.save_dataset(tmp_path / "data", ds)
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                   "--manifest", manifest, flag, value or tiny_cfg, "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert f"error: --manifest cannot be combined with {flag}\n" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ev")


@pytest.mark.parametrize("label, message", [
    ("x", "manifest line 1: expected 'path<TAB>integer label'"),
    ("-1", "dataset labels [-1] are not classes of the checkpoint"),
    ("9", "dataset labels [9] are not classes of the checkpoint"),
], ids=["not-int", "negative", "past-last-class"])
def test_eval_refuses_bad_manifest_label(tmp_path, tiny_cfg, capsys, label, message):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out, "--epochs", "0"]) == 0
    ds = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=16,
                                    width=16, per_class=1, seed=9))
    manifest = pathlib.Path(D.save_dataset(tmp_path / "data", ds))
    records = manifest.read_text().splitlines()
    records[0] = records[0].split("\t")[0] + "\t" + label
    manifest.write_text("\n".join(records) + "\n")
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                   "--manifest", str(manifest), "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ev")


def test_eval_refuses_conflicting_dims(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
    # speed2 has 2 classes; the checkpoint head has 4
    rc = cli.main(["eval", "--checkpoint",
                   os.path.join(out, "checkpoint.ckpt"),
                   "--config", tiny_cfg, "--task", "speed2",
                   "--out", str(tmp_path / "ev")])
    assert rc == 2


def test_eval_refuses_manifest_of_other_shape(tmp_path, tiny_cfg, capsys):
    out = str(tmp_path / "out")
    assert cli.main(["train", "--config", tiny_cfg, "--out", out, "--epochs", "0"]) == 0
    # 20x20 frames against a checkpoint trained on 16x16
    ds = D.generate(D.SyntheticTask(kind="direction4", frames=4, height=20,
                                    width=20, per_class=1, seed=9))
    manifest = D.save_dataset(tmp_path / "data", ds)
    rc = cli.main(["eval", "--checkpoint", os.path.join(out, "checkpoint.ckpt"),
                   "--manifest", manifest, "--out", str(tmp_path / "ev")])
    assert rc == 2
    assert "dataset sample shapes [(4, 3, 20, 20)] conflict with checkpoint dims (4, 3, 16, 16)" \
        in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "ev")


def test_eval_missing_checkpoint(tmp_path):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["train", "--config", "{cfg}", "--out", "{file}"],
    ["ablate", "--config", "{cfg}", "--out", "{file}"],
    ["train", "--config", "{dir}", "--out", "{out}"],
    ["eval", "--checkpoint", "{dir}", "--out", "{out}"],
], ids=["train-out-is-file", "ablate-out-is-file", "config-is-dir", "checkpoint-is-dir"])
def test_unusable_path_usage_error(tmp_path, tiny_cfg, capsys, monkeypatch, argv):
    # an OSError on a path the user gave exits 2, and a bad --out fails before the fit
    monkeypatch.setattr(cli.TR, "fit", lambda *a, **kw: pytest.fail("trained"))
    file = tmp_path / "file"
    file.write_text("")
    argv = [a.format(cfg=tiny_cfg, file=file, dir=tmp_path, out=tmp_path / "out") for a in argv]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.startswith("error: [Errno ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["sketchbench", "eval"])
def test_out_is_file_fails_before_the_work(tmp_path, tiny_cfg, capsys, monkeypatch, command):
    # a plain file as --out exits 2 before any width is sketched or video scored
    ckpt = tmp_path / "run" / "checkpoint.ckpt"
    assert cli.main(["train", "--config", tiny_cfg, "--out", str(ckpt.parent), "--epochs", "0"]) == 0
    capsys.readouterr()
    monkeypatch.setattr(cli, "sketch_errors", lambda *a: pytest.fail("sketched"))
    monkeypatch.setattr(cli.TR, "predict", lambda *a: pytest.fail("scored"))
    file = tmp_path / "file"
    file.write_text("")
    argv = {"sketchbench": ["sketchbench"],
            "eval": ["eval", "--config", tiny_cfg, "--checkpoint", str(ckpt)]}[command]
    assert cli.main([*argv, "--out", str(file)]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("error: [Errno ")
    assert "d=" not in out and "eval accuracy" not in out


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    rc = cli.main(["train", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_removed_config_key(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"reduce1": 0}))
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "unknown config keys: ['reduce1']" in capsys.readouterr().err


# A changed valid value of each experiment key, except `variant`, which
# cmd_train and cmd_ablate read instead of _build_experiment.
CHANGED = {
    "task": "speed2", "frames": 6, "height": 28, "width": 28, "train_per_class": 41,
    "eval_per_class": 26, "noise": 0.03, "conv1_channels": 9, "out_channels": 65,
    "sketch_dim": 257, "lr0": 0.06, "momentum": 0.8, "weight_decay": 0.0002,
    "decay_factor": 0.2, "decay_epochs": [2], "epochs": 6, "batch_size": 17, "seed": 1,
}


@pytest.mark.parametrize("key", sorted(set(cli._EXPERIMENT_DEFAULTS) - {"variant"}))
def test_every_experiment_key_is_read(key):
    # a config key that changes nothing is a switch that nothing sets
    base = cli._build_experiment(cli._EXPERIMENT_DEFAULTS)
    changed = cli._build_experiment(dict(cli._EXPERIMENT_DEFAULTS, **{key: CHANGED[key]}))
    assert changed != base


@pytest.mark.parametrize("argv", [
    ["train", "--seed", "-1"],
    ["gradcheck", "--seed", "-1"],
    ["sketchbench", "--seed", "-2"],
], ids=lambda argv: argv[0])
def test_negative_seed_flag_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as e:
        cli.main(argv)
    assert e.value.code == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_negative_seed_in_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"seed": -1}))
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2
    assert "config key 'seed': must be >= 0" in capsys.readouterr().err


def test_malformed_config_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["train", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


@pytest.mark.parametrize("key, value", [
    ("frames", "8"), ("frames", 8.0), ("frames", True), ("decay_epochs", 3),
    ("variant", 1), ("lr0", "0.1"), ("decay_epochs", ["a"]), ("decay_epochs", [1.5]),
])
def test_config_value_of_wrong_type(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: value}))
    rc = cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert f"config key {key!r}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("momentum", -1.0), ("momentum", 1.5), ("weight_decay", -0.5), ("decay_epochs", [-1]),
])
def test_bad_optimizer_setting_usage_error(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, **{key: value})))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(bad), "--out", str(out)]) == 2
    assert f"TrainConfig: {key} must be" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
@pytest.mark.parametrize("key", ["noise", "lr0", "weight_decay"])
def test_non_finite_config_value_usage_error(tmp_path, capsys, key, value):
    # json.dumps writes the literals NaN and Infinity, which json.load reads back.
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(dict(TINY, **{key: value})))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(bad), "--out", str(out)]) == 2
    assert f"config key {key!r}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--noise", "--lr0"])
def test_non_finite_flag_usage_error(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert cli.main(["ablate", flag, "inf", "--out", str(out)]) == 2
    assert f"config key {flag[2:]!r}: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("task", ["speed2", "mixed8"])
def test_default_frame_too_small_names_the_fix(tmp_path, capsys, task):
    # the fast blob's span needs 28px frames; the default is 24x24
    out = tmp_path / "out"
    assert cli.main(["train", "--task", task, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "the smallest side that fits is 28px" in err
    assert "set 'height' and 'width' through --config" in err
    assert not out.exists()
    D.generate(D.SyntheticTask(kind=task, height=28, width=28, per_class=1))


@pytest.mark.parametrize("noise, flags", [(1e308, []), (0.0, ["--noise", "1e200"])],
                         ids=["file-1e308", "flag-1e200"])
def test_huge_noise_usage_error(tmp_path, capsys, noise, flags):
    # a finite noise far above the blobs' intensity overflows in training
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY, noise=noise)))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), *flags, "--out", str(out)]) == 2
    assert "noise must be >= 0 and <= 10" in capsys.readouterr().err
    assert not out.exists()


def test_size_past_index_limits_usage_error(tmp_path, capsys):
    # 2**40 is past the sketch's int32 hash tables: refused before any allocation
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY, sketch_dim=2**40)))
    out = tmp_path / "out"
    assert cli.main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert "sketch_dim must be <= 2147483647" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_memory_usage_error(tmp_path, tiny_cfg, capsys, monkeypatch):
    def exhausted(*args, **kw):
        raise MemoryError("Unable to allocate 8.00 TiB")

    monkeypatch.setattr(M, "init_params", exhausted)
    assert cli.main(["train", "--config", tiny_cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "out of memory (Unable to allocate 8.00 TiB)" in err
    assert "out_channels=8" in err and "sketch_dim=32" in err


# The values a key of _EXPERIMENT_DEFAULTS may take, for the draws below.
USABLE = {
    "task": lambda v: v in D.TASK_KINDS, "variant": lambda v: v in M.VARIANTS,
    "frames": lambda v: v >= 2, "height": lambda v: v >= 4, "width": lambda v: v >= 4,
    "train_per_class": lambda v: v >= 1, "eval_per_class": lambda v: v >= 1,
    "noise": lambda v: 0 <= v <= 10, "conv1_channels": lambda v: v >= 1,
    "out_channels": lambda v: v >= 1, "sketch_dim": lambda v: v >= 1,
    "lr0": lambda v: 0 < v < np.inf, "momentum": lambda v: 0 <= v < 1,
    "weight_decay": lambda v: 0 <= v < np.inf, "decay_factor": lambda v: 0 <= v < 1,
    "decay_epochs": lambda v: v >= 0, "epochs": lambda v: v >= 0,
    "batch_size": lambda v: v >= 1, "seed": lambda v: v >= 0,
}
WRONG_TYPE = object()


def usable(key, v) -> bool:
    """v has the type of key's default (an int may stand for a float) and is in range."""
    default = cli._EXPERIMENT_DEFAULTS[key]
    if isinstance(default, list):
        return isinstance(v, list) and all(
            cli._is_a(type(default[0]), x) and USABLE[key](x) for x in v)
    return cli._is_a(type(default), v) and USABLE[key](v)


# lr0 or weight_decay 1e308 is usable, and diverges: exit 1.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@given(key=st.sampled_from(sorted(cli._EXPERIMENT_DEFAULTS)),
       draw=st.sampled_from([float("nan"), float("inf"), -float("inf"), 0, -1, 1e308,
                             WRONG_TYPE]))
@settings(max_examples=200, deadline=None)
def test_any_one_bad_config_value(key, draw):
    # One key at a time, on frames small enough that a run takes milliseconds:
    # train never raises, and exits 2 exactly when the value is unusable.
    default = cli._EXPERIMENT_DEFAULTS[key]
    if draw is WRONG_TYPE:
        value = 1 if isinstance(default, str) else "1"
    else:
        value = [draw] if isinstance(default, list) else draw
    cfg = dict(TINY, frames=2, height=12, width=12, train_per_class=1, eval_per_class=1,
               conv1_channels=1, out_channels=2, sketch_dim=4)
    cfg[key] = value
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "cfg.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        rc = cli.main(["train", "--config", path, "--out", os.path.join(d, "out")])
    assert rc in (0, 1, 2)
    assert (rc == 2) == (not usable(key, value)), (key, value, rc)


def test_config_must_be_object(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[]")
    assert cli.main(["train", "--config", str(bad), "--out", str(tmp_path / "out")]) == 2


def test_config_int_accepted_for_float(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(TINY, noise=0, epochs=0)))
    assert cli.main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0


def test_unknown_flag_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        cli.main(["train", "--warp-speed", "9"])
    assert e.value.code == 2


def test_missing_subcommand_usage_error():
    with pytest.raises(SystemExit) as e:
        cli.main([])
    assert e.value.code == 2


def test_ablate_covers_all_variants(tmp_path, tiny_cfg):
    out = str(tmp_path / "out")
    rc = cli.main(["ablate", "--config", tiny_cfg, "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "ablation.tsv")).read().splitlines()
    assert lines[2].split("\t") == ["variant", "train_acc", "eval_acc", "loss"]
    rows = [l.split("\t") for l in lines[3:]]
    assert [r[0] for r in rows] == list(M.VARIANTS)
    assert all(np.isfinite(float(r[3])) for r in rows)


def test_sketchbench_writes_table(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_dim": 16,
                               "output_dims": [32, 64],
                               "trials": 20, "seed": 0}))
    out = str(tmp_path / "out")
    rc = cli.main(["sketchbench", "--config", str(cfg), "--out", out])
    assert rc == 0
    lines = open(os.path.join(out, "sketchbench.tsv")).read().splitlines()
    assert lines[2].split("\t")[0] == "d"
    assert len(lines) == 5


@pytest.mark.parametrize("key, value", [
    ("output_dims", ["a"]), ("output_dims", [True]), ("trials", 0), ("output_dims", []),
])
def test_sketchbench_refuses_bad_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_dim": 8, "output_dims": [16], "trials": 2, key: value}))
    rc = cli.main(["sketchbench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_gradcheck_exits_zero():
    assert cli.main(["gradcheck", "--out", ""]) == 0


def test_gradcheck_takes_no_config(capsys):
    # gradcheck reads no config file, so naming one is a usage error
    with pytest.raises(SystemExit) as e:
        cli.main(["gradcheck", "--config", "x.json"])
    assert e.value.code == 2
    assert "unrecognized arguments: --config" in capsys.readouterr().err


def test_gradcheck_failure_exits_one(monkeypatch, capsys):
    results = [C.CheckResult("matmul", 0.5, 1e-4), C.CheckResult("add", 0.0, 1e-4)]
    monkeypatch.setattr(C, "run_audit", lambda seed=0: results)
    assert cli.main(["gradcheck"]) == 1
    captured = capsys.readouterr()
    assert "FAIL matmul" in captured.out
    assert captured.err == "gradient check failed: matmul\n"
