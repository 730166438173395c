"""Command-line entry point for batch experiments.

Commands: train | eval | sketchbench | gradcheck | ablate. Configuration is a
flat JSON file (--config) with individual flags winning over file values.
Every output table is tab-separated with a header row, preceded by '#' comment
lines carrying the config hash and seed, and written atomically.

Exit codes: 0 success, 1 numeric/check failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

from . import check as C
from . import data as D
from . import model as M
from . import train as TR
from .attention import effective_weights
from .errors import ConfigError, FormatError, InputError, ShapeError
from ._io import atomic_write_text
from .sketch import compact_bilinear, make_plan
from .tensor import Tensor


def _config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _is_a(want: type, v) -> bool:
    # An int may stand for a float; a bool is not an int here.
    return type(v) in ((int, float) if want is float else (want,))


def _merge_config(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags.

    A file value must have its default's type, and each element of a list
    value the type of the default's elements. Every float value of the result
    must be finite: json reads NaN and Infinity, and argparse's float nan and inf.
    """
    cfg = dict(defaults)
    if args.config:
        with open(args.config) as f:
            loaded = json.load(f)
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file must hold a JSON object, got {type(loaded).__name__}")
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, v in loaded.items():
            default = defaults[key]
            elem = type(default[0]) if isinstance(default, list) else None
            if not _is_a(type(default), v) or (elem and not all(_is_a(elem, x) for x in v)):
                want = f"list of {elem.__name__}" if elem else type(default).__name__
                raise ConfigError(
                    f"config key {key!r}: expected {want}, got {type(v).__name__} {v!r}"
                )
        if loaded.get("seed", 0) < 0:
            raise ConfigError(f"config key 'seed': must be >= 0, got {loaded['seed']}")
        cfg.update(loaded)
    for key in defaults:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    for key, v in cfg.items():
        if type(v) is float and not np.isfinite(v):
            raise ConfigError(f"config key {key!r}: must be finite, got {v!r}")
    return cfg


def _write_table(path, cfg_hash: str, seed, columns, rows) -> None:
    lines = [f"# config_hash={cfg_hash}", f"# seed={seed}", "\t".join(columns)]
    for row in rows:
        lines.append("\t".join(
            f"{v:.10g}" if isinstance(v, float) else str(v) for v in row
        ))
    atomic_write_text(path, "\n".join(lines) + "\n")


_EXPERIMENT_DEFAULTS = {
    "task": "direction4",
    "frames": 8,
    "height": 24,
    "width": 24,
    "train_per_class": 40,
    "eval_per_class": 25,
    "noise": 0.02,
    "conv1_channels": 8,
    "out_channels": 64,
    "sketch_dim": 256,
    "variant": "full",
    "lr0": 0.05,
    "momentum": 0.9,
    "weight_decay": 0.0001,
    "decay_factor": 0.1,
    "decay_epochs": [3],
    "epochs": 5,
    "batch_size": 16,
    "seed": 0,
}


def _build_experiment(cfg: dict):
    """Validate a resolved config and materialize datasets, dims, and TrainConfig."""
    train_task = D.SyntheticTask(
        kind=cfg["task"], frames=cfg["frames"], height=cfg["height"],
        width=cfg["width"], per_class=cfg["train_per_class"],
        noise=cfg["noise"], seed=cfg["seed"],
    )
    eval_task = D.SyntheticTask(
        kind=cfg["task"], frames=cfg["frames"], height=cfg["height"],
        width=cfg["width"], per_class=cfg["eval_per_class"],
        noise=cfg["noise"], seed=cfg["seed"] + 1,
    )
    dims = M.ModelDims(
        frames=cfg["frames"], height=cfg["height"], width=cfg["width"],
        conv1_channels=cfg["conv1_channels"], out_channels=cfg["out_channels"],
        sketch_dim=cfg["sketch_dim"], n_classes=train_task.n_classes,
    )
    tcfg = TR.TrainConfig(
        lr0=cfg["lr0"], momentum=cfg["momentum"], weight_decay=cfg["weight_decay"],
        decay_factor=cfg["decay_factor"], decay_epochs=tuple(cfg["decay_epochs"]),
        epochs=cfg["epochs"], batch_size=cfg["batch_size"], seed=cfg["seed"],
    )
    return train_task, eval_task, dims, tcfg


def _last_epoch(report, name):
    """Field `name` of the last epoch's record; NaN when no epoch ran."""
    return getattr(report.epochs[-1], name) if report.epochs else float("nan")


def cmd_train(args) -> int:
    cfg = _merge_config(args, _EXPERIMENT_DEFAULTS)
    h = _config_hash(cfg)
    train_task, eval_task, dims, tcfg = _build_experiment(cfg)
    train_set = D.generate(train_task)
    eval_set = D.generate(eval_task)
    params = M.init_params(dims, cfg["seed"], cfg["variant"])
    report = TR.fit(params, train_set, tcfg, eval_set=eval_set)
    os.makedirs(args.out, exist_ok=True)
    _write_table(os.path.join(args.out, "train_report.tsv"), h, cfg["seed"],
                 [f.name for f in dataclasses.fields(TR.EpochRecord)],
                 [dataclasses.astuple(r) for r in report.epochs])
    if report.nonfinite_at is not None:
        epoch, batch = report.nonfinite_at
        what = (f"gradient of {report.nonfinite_tensor}" if report.nonfinite_tensor
                else "loss")
        raise RuntimeError(f"training diverged: non-finite {what} at epoch {epoch}, "
                           f"batch {batch}; no checkpoint written")
    # The checkpoint's payloads are 32-bit: a finite 64-bit weight can overflow there.
    bad = [n for n, t in M.named_tensors(params) if not np.isfinite(t.data.astype(np.float32)).all()]
    if bad:
        raise RuntimeError(f"training diverged: {bad[0]} is not finite in 32 bits; "
                           "no checkpoint written")
    ckpt = os.path.join(args.out, "checkpoint.ckpt")
    M.save_checkpoint(ckpt, params)
    final_train = _last_epoch(report, "train_acc")
    # Scored with the weights as the checkpoint stores them (f32), as `eval` reads them.
    final_eval = TR.evaluate(M.load_checkpoint(ckpt), eval_set)
    _write_table(os.path.join(args.out, "metrics.tsv"), h, cfg["seed"],
                 ("variant", "train_acc", "eval_acc"),
                 [(cfg["variant"], float(final_train), float(final_eval))])
    print(f"trained {cfg['variant']}: eval_acc={final_eval:.4f} -> {args.out}")
    return 0


def cmd_ablate(args) -> int:
    cfg = _merge_config(args, _EXPERIMENT_DEFAULTS)
    h = _config_hash(cfg)
    train_task, eval_task, dims, tcfg = _build_experiment(cfg)
    train_set = D.generate(train_task)
    eval_set = D.generate(eval_task)
    rows = []
    for variant in M.VARIANTS:
        params = M.init_params(dims, cfg["seed"], variant)
        report = TR.fit(params, train_set, tcfg)
        final_train, final_eval = _last_epoch(report, "train_acc"), TR.evaluate(params, eval_set)
        rows.append((variant, float(final_train), float(final_eval),
                     float(_last_epoch(report, "loss"))))
        print(f"{variant}: train_acc={final_train:.4f} eval_acc={final_eval:.4f}")
    os.makedirs(args.out, exist_ok=True)
    # `loss` is the last epoch's mean training loss; NaN marks a diverged variant.
    _write_table(os.path.join(args.out, "ablation.tsv"), h, cfg["seed"],
                 ("variant", "train_acc", "eval_acc", "loss"), rows)
    return 0


# The keys of an experiment config that `eval` reads, and hashes.
_EVAL_KEYS = ("task", "frames", "height", "width", "train_per_class",
              "eval_per_class", "noise", "seed")


def cmd_eval(args) -> int:
    params = M.load_checkpoint(args.checkpoint)
    d = params.dims
    if args.manifest:
        dataset = D.load_dataset(args.manifest)
        cfg = {"manifest": args.manifest, "checkpoint": args.checkpoint}
        seed = params.seed
    else:
        # Accept a full training config so the same file drives both
        # commands, and score the held-out task that `train` evaluates on.
        full = _merge_config(args, _EXPERIMENT_DEFAULTS)
        cfg = {k: full[k] for k in _EVAL_KEYS}
        seed = cfg["seed"]
        _, task, _, _ = _build_experiment(full)
        if task.n_classes != d.n_classes:
            raise ConfigError(
                f"checkpoint has {d.n_classes} classes but task {task.kind!r} "
                f"has {task.n_classes}"
            )
        dataset = D.generate(task)
    h = _config_hash(cfg)
    expected = (d.frames, M.IN_CHANNELS, d.height, d.width)
    conflicting = {video.data.shape for video, _ in dataset} - {expected}
    if conflicting:
        raise ConfigError(
            f"dataset sample shapes {sorted(conflicting)} conflict with checkpoint dims {expected}"
        )
    outside = sorted({label for _, label in dataset} - set(range(d.n_classes)))
    if outside:
        raise ConfigError(
            f"dataset labels {outside} are not classes of the checkpoint, [0, {d.n_classes})"
        )
    labels = np.array([label for _, label in dataset])
    preds = np.argmax(TR.predict(params, dataset), axis=1)
    per_class_n = np.bincount(labels, minlength=d.n_classes)
    per_class_correct = np.bincount(labels[preds == labels], minlength=d.n_classes)
    wa, wb = effective_weights(params.final_fusion)
    delta, epsilon = float(wa.data), float(wb.data)
    fusion_rows = [(i, int(y), int(p), delta, epsilon)
                   for i, (y, p) in enumerate(zip(labels, preds))]
    os.makedirs(args.out, exist_ok=True)
    acc_rows = [
        (c, int(per_class_n[c]), int(per_class_correct[c]),
         float(per_class_correct[c] / per_class_n[c]) if per_class_n[c] else float("nan"))
        for c in range(d.n_classes)
    ]
    total_acc = per_class_correct.sum() / max(1, per_class_n.sum())
    _write_table(os.path.join(args.out, "per_class_accuracy.tsv"), h, seed,
                 ("class", "n", "correct", "accuracy"), acc_rows)
    # delta/epsilon are the post-softmax fusion weights of the temporal and
    # spatial video vectors, repeated per evaluated video.
    _write_table(os.path.join(args.out, "fusion_weights.tsv"), h, seed,
                 ("video", "label", "pred", "delta", "epsilon"), fusion_rows)
    print(f"eval accuracy={total_acc:.4f} over {per_class_n.sum()} samples -> {args.out}")
    return 0


_SKETCHBENCH_DEFAULTS = {
    "input_dim": 64,
    "output_dims": [256, 1024, 4096],
    "trials": 100,
    "seed": 0,
}


def cmd_sketchbench(args) -> int:
    cfg = _merge_config(args, _SKETCHBENCH_DEFAULTS)
    if cfg["trials"] < 1:
        raise ConfigError(f"sketchbench: trials must be >= 1, got {cfg['trials']}")
    if not cfg["output_dims"]:
        raise ConfigError("sketchbench: output_dims must list at least one width")
    h = _config_hash(cfg)
    rows = []
    for d in cfg["output_dims"]:
        errs = sketch_errors(cfg["input_dim"], d, cfg["trials"], cfg["seed"])
        rows.append((d, float(np.median(errs)),
                     float(np.quantile(errs, 0.25)), float(np.quantile(errs, 0.75))))
        print(f"d={d}: median_rel_err={rows[-1][1]:.4f}")
    os.makedirs(args.out, exist_ok=True)
    _write_table(os.path.join(args.out, "sketchbench.tsv"), h, cfg["seed"],
                 ("d", "median_rel_err", "q25_rel_err", "q75_rel_err"), rows)
    return 0


def sketch_errors(c: int, d: int, trials: int, seed: int) -> np.ndarray:
    """Relative error of sketched vs exact pairwise bilinear inner products.

    Draws are nonnegative, matching post-relu activations; zero-mean draws
    put the exact inner product near zero and make relative error
    meaningless regardless of sketch width.
    """
    rng = np.random.default_rng(seed)
    plan = make_plan(c, d, seed)
    x, y, u, v = (Tensor(a) for a in np.moveaxis(rng.uniform(0.0, 1.0, (trials, 4, c)), 1, 0))
    # Each trial's dot product as a (1, n) @ (n, 1) product, summed as np.dot sums it.
    dot = lambda a, b: (a[:, None] @ b[:, :, None])[:, 0, 0]
    approx = dot(compact_bilinear(x, y, plan).data, compact_bilinear(u, v, plan).data)
    exact = dot(x.data, u.data) * dot(y.data, v.data)
    return np.abs(approx - exact) / np.maximum(np.abs(exact), 1e-12)


def cmd_gradcheck(args) -> int:
    results = C.run_audit(seed=args.seed if args.seed is not None else 0)
    failed = False
    for r in results:
        status = "ok" if r.ok else "FAIL"
        print(f"{status:4s} {r.name:22s} rel_err={r.err:.3e} tol={r.tol:.0e}")
        failed = failed or not r.ok
    if failed:
        bad = ", ".join(r.name for r in results if not r.ok)
        print(f"gradient check failed: {bad}", file=sys.stderr)
        return 1
    return 0


def _seed(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {text}")
    return int(text)


def _add_common(p):
    p.add_argument("--config", help="flat JSON config file")
    p.add_argument("--seed", type=_seed, help="master seed (>= 0)")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="actf",
                                     description="attentive correlated temporal "
                                                 "feature experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one variant on a synthetic task")
    _add_common(p)
    p.add_argument("--task", choices=sorted(D.TASK_KINDS))
    p.add_argument("--variant", choices=M.VARIANTS)
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--lr0", type=float)
    p.add_argument("--noise", type=float)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("ablate", help="train all variants on the same data/seed")
    _add_common(p)
    p.add_argument("--task", choices=sorted(D.TASK_KINDS))
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr0", type=float)
    p.add_argument("--noise", type=float)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--manifest", help="dataset manifest (path<TAB>label records)")
    p.add_argument("--task", choices=sorted(D.TASK_KINDS))
    p.add_argument("--noise", type=float)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("sketchbench", help="sketch approximation-error study")
    _add_common(p)
    p.add_argument("--input-dim", type=int, dest="input_dim")
    p.add_argument("--output-dims", dest="output_dims",
                   type=lambda s: [int(x) for x in s.split(",")])
    p.add_argument("--trials", type=int)
    p.set_defaults(fn=cmd_sketchbench)

    p = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    _add_common(p)
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, FormatError, FileNotFoundError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ShapeError, InputError, RuntimeError) as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
