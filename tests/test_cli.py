"""End-to-end command-line tests on miniature configurations."""

import json
import os
import pathlib

import numpy as np
import pytest

from actf import cli
from actf import data as D
from actf import model as M


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


def test_train_determinism_byte_identical(tmp_path, tiny_cfg):
    outs = []
    for run in ("a", "b"):
        out = str(tmp_path / run)
        assert cli.main(["train", "--config", tiny_cfg, "--out", out]) == 0
        outs.append(out)
    for name in ("metrics.tsv", "train_report.tsv", "checkpoint.ckpt"):
        a = open(os.path.join(outs[0], name), "rb").read()
        b = open(os.path.join(outs[1], name), "rb").read()
        assert a == b, name


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


def test_eval_missing_checkpoint(tmp_path):
    rc = cli.main(["eval", "--checkpoint", str(tmp_path / "nope.ckpt"),
                   "--out", str(tmp_path / "ev")])
    assert rc == 2


def test_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"learning_rate": 0.1}))
    rc = cli.main(["train", "--config", str(bad),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


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
    variants = [l.split("\t")[0] for l in lines[3:]]
    assert variants == list(M.VARIANTS)


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
    ("output_dims", ["a"]), ("output_dims", [True]), ("trials", 0),
])
def test_sketchbench_refuses_bad_config(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"input_dim": 8, "output_dims": [16], "trials": 2, key: value}))
    rc = cli.main(["sketchbench", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert key in capsys.readouterr().err


def test_gradcheck_exits_zero():
    assert cli.main(["gradcheck", "--out", ""]) == 0
