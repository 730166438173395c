"""Benchmark of the actf package: end-to-end metrics, or per-layer spans with --trace 1.

    python3 bench/run.py --workload train-default --seed 0 --trace 0
    python3 bench/run.py                 # every workload, each in a fresh process
    python3 bench/run.py --trace 1       # the same, traced

One workload per process: set up several times (the median is `setup_s`),
run whole rounds of its operations for about `run_seconds` of
BENCHMARK.json (or --seconds, which a caller may pass), check the outputs
against the independent reference in reference.py, and print one JSON
object as the last line. The package is imported from ../src; it need not be
installed. See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(BENCH_DIR, "results")
WORKLOAD_NAMES = ("train-default", "branch-paper", "ablate-default")
SETUP_REPS = 5

END_TO_END = (
    ("train_samples_per_s", "samples/s"),
    ("eval_samples_per_s", "samples/s"),
    ("branch_fwd_ms", "ms"),
    ("branch_fwdbwd_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
)
# Layer spans reported as mean inclusive ms per call.
LAYER_SPANS = (
    ("model.forward_ms", "model.forward"),
    ("model.backbone_ms", "model.backbone"),
    ("branch.extract_actf_ms", "branch.extract_actf"),
    ("sketch.compact_bilinear_ms", "sketch.compact_bilinear"),
    ("attention.temporal_weights_ms", "attention.temporal_weights"),
    ("attention.fuse_pair_ms", "attention.fuse_pair"),
    ("tape.backward_ms", "tape.backward"),
    ("train.optimizer_step_ms", "train.optimizer_step"),
)
# Set-up spans reported as seconds per set-up.
SETUP_SPANS = (
    ("data.generate_s", "data.generate"),
    ("model.init_params_s", "model.init_params"),
    ("sketch.make_plan_s", "sketch.make_plan"),
)


def _limit_blas_threads():
    """At most one BLAS thread per usable core; must run before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var, cores))
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOAD_NAMES,
                   help="run one workload in this process (default: all, one process each)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="measuring time per workload (default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one workload


def run_rounds(workload, tally, seconds, probe):
    """Whole rounds until the next one would end after `seconds`; at least one.

    Returns each round's duration as timed and at the probe's reference speed.
    """
    durations, scaled = [], []
    start = time.perf_counter()
    while True:
        n = len(probe.readings)
        t0 = time.perf_counter()
        workload.round(tally, probe)
        durations.append(time.perf_counter() - t0)
        scaled.append(probe.at_reference(durations[-1], since=n))
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return durations, scaled


def end_to_end(tally, setup, peak_rss_mb):
    """The metrics at the probe's reference speed, and as timed."""
    scaled = {
        "train_samples_per_s": tally.train_samples / tally.train_ref_s,
        "eval_samples_per_s": tally.eval_samples / tally.eval_ref_s,
        "branch_fwd_ms": statistics.median(tally.fwd_ref_ms),
        "branch_fwdbwd_ms": statistics.median(tally.fwdbwd_ref_ms),
        "setup_s": setup[1],
        "peak_rss_mb": peak_rss_mb,
    }
    timed = {
        "train_samples_per_s": tally.train_samples / tally.train_s,
        "eval_samples_per_s": tally.eval_samples / tally.eval_s,
        "branch_fwd_ms": statistics.median(tally.fwd_ms),
        "branch_fwdbwd_ms": statistics.median(tally.fwdbwd_ms),
        "setup_s": setup[0],
    }
    return scaled, timed


def per_layer(tracer, setup_spans, tally):
    from spans import PRIMITIVES, Span

    absent = Span()
    m = {}
    for op in PRIMITIVES:
        s = tracer.spans.get(f"tensor.{op}", absent)
        m[f"tensor.{op}.fwd_ms"] = (s.self_time * 1e3 / tally.items, "ms")
        m[f"tensor.{op}.bwd_ms"] = (s.bwd * 1e3 / tally.items, "ms")
        m[f"tensor.{op}.calls"] = (s.calls / tally.items, "count")
    m["tape.records_per_sample"] = (tracer.taped_records / tally.taped, "count")
    for metric, name in LAYER_SPANS:
        s = tracer.spans.get(name, absent)
        m[metric] = (s.total * 1e3 / s.calls if s.calls else 0.0, "ms")
    for metric, name in SETUP_SPANS:
        m[metric] = (setup_spans.get(name, absent).total / SETUP_REPS, "s")
    m["train.eval_acc"] = (statistics.median(tally.accuracies) if tally.accuracies else 0.0,
                           "fraction")
    return m


def write_trace_table(path, workload, seed, tracer, setup_spans, tally, overhead):
    items = ("branch calls" if workload == "branch-paper"
             else "videos through fit or evaluate; the branch bursts run untraced")
    lines = [
        f"# workload={workload} seed={seed}",
        f"# items={tally.items} ({items}); setup spans are per set-up, round spans per item",
        f"# untraced round {overhead[0]:.3f} s, traced round {overhead[1]:.3f} s "
        f"(at the probe's reference speed), "
        f"tracing overhead {100 * (overhead[1] / overhead[0] - 1):+.1f}%",
        f"# absent: {', '.join(tracer.absent) or 'none'}",
        "phase\tspan\tcalls\ttotal_ms\tself_ms\tbwd_calls\tbwd_ms\tcalls_per_unit"
        "\tself_ms_per_unit\tbwd_ms_per_unit",
    ]
    for phase, spans, unit in (("setup", setup_spans, SETUP_REPS),
                               ("rounds", tracer.spans, tally.items)):
        order = sorted(spans.items(), key=lambda kv: -(kv[1].self_time + kv[1].bwd))
        for name, s in order:
            lines.append("\t".join([
                phase, name, str(s.calls), f"{s.total * 1e3:.3f}", f"{s.self_time * 1e3:.3f}",
                str(s.bwd_calls), f"{s.bwd * 1e3:.3f}", f"{s.calls / unit:.4f}",
                f"{s.self_time * 1e3 / unit:.5f}", f"{s.bwd * 1e3 / unit:.5f}"]))
    for name in tracer.absent:
        lines.append(f"rounds\t{name}\tabsent\t\t\t\t\t\t\t")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def run_workload(args) -> int:
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import actf.branch, actf.data, actf.model, actf.tensor, actf.train  # noqa: F401,E401
    import_s = time.perf_counter() - t0

    import workloads as W
    from probe import REFERENCE_S, SpeedProbe
    from spans import Tracer
    import test_reference

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probe = SpeedProbe()
    import_ref_s = import_s / probe.mark()
    times, ref_times = [], []
    workload = None
    for _ in range(SETUP_REPS):
        workload = None   # free the previous set-up first, so it does not count in peak RSS
        t0 = time.perf_counter()
        workload = W.WORKLOADS[args.workload](args.seed)
        workload.setup()
        times.append(time.perf_counter() - t0)
        ref_times.append(times[-1] / probe.mark())
    setup = (import_s + statistics.median(times), import_ref_s + statistics.median(ref_times))

    workload.make_feature_maps()   # numpy only: no span records it
    tally = W.Tally()
    if tracer:
        setup_spans = dict(tracer.spans)
        tracer.reset()
        tally.untraced = tracer.paused
        # Half the time traced, then half untraced: the ratio of their median
        # round times, at the probe's reference speed, is the tracing overhead.
        # The first round runs traced, so any warm-up counts as overhead.
        try:
            rounds, traced = run_rounds(workload, tally, args.seconds / 2, probe)
        finally:
            tracer.uninstall()
        _, untraced = run_rounds(workload, W.Tally(), args.seconds / 2, probe)
    else:
        rounds, _ = run_rounds(workload, tally, args.seconds, probe)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    results = list(test_reference.run_all()) + list(workload.check())
    correct = all(ok for _, ok, _ in results)
    for name, ok, detail in results:
        print(f"check {name}: {'ok' if ok else 'FAIL'} ({detail})")
    for op in tally.failed_ops:
        print(f"failed operation: {op}")
    print(f"{args.workload}: {len(rounds)} round(s) of "
          f"{statistics.median(rounds):.2f} s, {tally.attempted} operations, "
          f"{tally.failed} failed")

    if tracer:
        metrics = per_layer(tracer, setup_spans, tally)
        overhead = (statistics.median(untraced), statistics.median(traced))
        table = os.path.join(RESULTS, f"{args.workload}.trace.tsv")
        write_trace_table(table, args.workload, args.seed, tracer, setup_spans, tally, overhead)
        print(f"tracing overhead {100 * (overhead[1] / overhead[0] - 1):+.1f}% "
              f"({overhead[0]:.2f} s untraced vs {overhead[1]:.2f} s traced per round, "
              f"at reference speed); "
              f"table in {os.path.relpath(table, ROOT)}")
    else:
        values, timed = end_to_end(tally, setup, peak_rss_mb)
        metrics = {name: (values[name], unit) for name, unit in END_TO_END}
        print(f"probe readings: median {statistics.median(probe.readings) * 1e3:.2f} ms "
              f"over {len(probe.readings)} (reference {REFERENCE_S * 1e3:g} ms); as timed: "
              + ", ".join(f"{k} {v:.6g}" for k, v in timed.items()))
        if tally.accuracies:
            print(f"held-out accuracy of full: {statistics.median(tally.accuracies):.4f}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}.trace{args.trace}.json"), "w") as f:
        json.dump(result, f, indent=1)
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# every workload


def run_all(args) -> int:
    """Each workload in a fresh process; a summary line per metric at the end."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        summary[name] = result = json.loads(lines[-1])
        status |= 0 if result["correct"] else 1
    print("== summary")
    for name, result in summary.items():
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for metric, v in result["metrics"].items():
            print(f"  {metric} {v['value']:.6g} {v['unit']}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "actf", "__init__.py")):
        print(f"error: the actf sources are missing ({SRC}/actf)", file=sys.stderr)
        return 2
    if args.seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            args.seconds = json.load(f)["run_seconds"]
    _limit_blas_threads()
    sys.path[:0] = [SRC, BENCH_DIR]
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
