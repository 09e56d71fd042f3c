"""Benchmark for adicaut: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all [--seed N] [--seconds S]

One run measures one workload in this process: it derives the inputs and
their expected answers from the seed, sets up, then serves ops one at a time
for at least S seconds (whole passes over the inputs, and at least the
workload's minimum op count).  The last line of stdout is one JSON object
with `correct`, `attempted`, `failed` and `metrics`: end-to-end metrics with
--trace 0, per-layer metrics with --trace 1.  End-to-end timings are
calibrated against a reference loop run between ops (calibrate.py), so that
a shared host's changes of speed cancel out.  `--workload all` runs every
workload untraced and traced, each in a fresh interpreter, and prints every
metric.  Results with run metadata (and spans, when traced) are written to
`.bench_out/results/` at the repository root.

The code under test is `src/adicaut` next to this directory; without it the
benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import traceback
from time import perf_counter

import answers
from calibrate import REF_S, Calibration
from spans import LAYERS, SWEEP, Tracer, pass_percentile, percentile, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_out")

END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "automaton.build_s": "s",
    "automaton.build_transitions_per_s": "1/s",
    "automaton.check_s": "s",
    "automaton.check_transitions_per_s": "1/s",
    "automaton.to_json_s": "s",
    "automaton.json_mb": "MB",
    "automaton.from_json_s": "s",
    "automaton.dedup_s": "s",
    "automaton.dedup_merged_frac": "frac",
    "automaton.rss_after_build_mb": "MB",
    "automaton.rss_after_codec_mb": "MB",
    "automaton.rss_after_dedup_mb": "MB",
    "treeaction.parse_word_p90_ms": "ms",
    "treeaction.parse_factors_per_s": "1/s",
    "treeaction.act_steps_per_s": "1/s",
    "treeaction.closure_s": "s",
    "treeaction.closure_nodes.identity": "count",
    "treeaction.closure_nodes.nontrivial": "count",
    "treeaction.closure_nodes_per_s": "1/s",
    "treeaction.sections_per_s": "1/s",
    "treeaction.budget_exhausted": "count",
    "treeaction.budget_expected": "count",
    "treeaction.verify_relation_s": "s",
    "constructions.relator_check_s": "s",
    "nadic.oracle_s": "s",
    "nadic.oracle_letters_per_s": "1/s",
    "linalg.mod_div_per_s": "1/s",
    "linalg.mat_vec_per_s": "1/s",
    "cli.overhead_ms": "ms",
    "trace.overhead_ms": "ms",
    "bench.self_frac": "frac",
    "linalg.self_frac": "frac",
    "automaton.self_frac": "frac",
    "treeaction.self_frac": "frac",
    "nadic.self_frac": "frac",
    "constructions.self_frac": "frac",
    "cli.self_frac": "frac",
}

# What each generic end-to-end metric means on each workload.
ALIASES = {
    "sanov_d4_pipeline": {"op_p50_ms": "pipeline time", "op_p90_ms": "pipeline time (too few ops for p90)",
                          "work_per_s": "transitions per pipeline second", "setup_s": "build_union"},
    "wp_ladders_d3": {"op_p50_ms": "wp_p50_ms", "op_p90_ms": "wp_p90_ms", "work_per_s": "wp_per_s",
                      "setup_s": "build + to_json + file write"},
    "act_oracle_d5": {"op_p50_ms": "act_p50_ms", "op_p90_ms": "act_p90_ms", "work_per_s": "act_steps_per_s",
                      "setup_s": "build + to_json + file write"},
}


def load_library():
    "Import adicaut from src/ next to the benchmark, or return None."
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "adicaut", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import adicaut
    if os.path.dirname(os.path.abspath(adicaut.__file__)) != os.path.join(src, "adicaut"):
        return None
    return adicaut


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit():
    "HEAD of the checkout's git repository, read from .git; None outside one."
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.isfile(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args):
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "git_commit": git_commit(),
    }


def measure(wl, tr, cal, seconds, trace):
    """Closed loop: whole passes over the workload's inputs until `seconds`
    have passed and at least `wl.min_ops` ops ran untraced (and as many
    traced), with the reference loop of `cal` run between ops.  Traced runs
    trace every other op, so one run yields both traced and untraced
    latencies, as `(midpoint, seconds, pass)`."""
    latencies = {False: [], True: []}
    work = 0.0
    attempted = failed = passes = 0
    min_ops = wl.min_ops * (2 if trace else 1)
    cal.tick(force=True)
    start = perf_counter()
    while perf_counter() - start < seconds or attempted < min_ops:
        passes += 1
        for x in wl.ops():
            tr.enabled = bool(trace) and attempted % 2 == 1
            tr.op = attempted
            t0 = perf_counter()
            with tr.span("bench.op"):
                try:
                    latency, w, ok = wl.op(x, tr)
                except Exception:
                    traceback.print_exc()
                    latency, w, ok = None, 0, False
            t1 = perf_counter()
            attempted += 1
            failed += not ok
            if latency is not None:
                latencies[tr.enabled].append(((t0 + t1) / 2, latency, passes))
                if not tr.enabled:
                    work += w
            cal.tick()
    cal.tick(force=True)
    if trace:
        tr.enabled, tr.op = True, SWEEP
        with tr.span("bench.sweep"):
            try:
                ok = wl.sweep(tr)
            except Exception:
                traceback.print_exc()
                ok = False
        attempted += 1
        failed += not ok
    tr.enabled = False
    return latencies, work, attempted, failed


def end_to_end(cal, setup_times, latencies, work, peak_rss):
    """Timings in reference seconds (see calibrate.py); op quantiles are
    medians over the run's passes of each pass's quantile."""
    samples = latencies[False]
    passes = by_pass(samples, cal.scale(samples))
    return {
        "setup_s": statistics.median(cal.scale(setup_times)),
        "op_p50_ms": pass_percentile(passes, 0.5)[0] * 1e3,
        "op_p90_ms": tail(passes)[0] * 1e3,
        "work_per_s": work / sum(map(sum, passes)),
        "peak_rss_mb": peak_rss,
    }


def by_pass(samples, values):
    "`values` grouped by the pass of each `(midpoint, seconds, pass)` sample."
    passes = {}
    for s, v in zip(samples, values):
        passes.setdefault(s[2], []).append(v)
    return list(passes.values())


def wall(samples):
    return [s[1] for s in samples]


def per_layer(tr, wl, latencies):
    wp = wl.wp
    g = tr.gauges
    m = {
        "automaton.build_s": tr.median("automaton.build_union"),
        "automaton.build_transitions_per_s": tr.rate("automaton.build_union"),
        "automaton.check_s": tr.median("automaton.well_definedness_check"),
        "automaton.check_transitions_per_s": tr.rate("automaton.well_definedness_check"),
        "automaton.to_json_s": tr.median("automaton.to_json"),
        "automaton.json_mb": g["automaton.json_mb"],
        "automaton.from_json_s": tr.median("automaton.from_json"),
        "automaton.dedup_s": tr.median("automaton.dedup"),
        "automaton.dedup_merged_frac": g["automaton.dedup_merged_frac"],
        "automaton.rss_after_build_mb": g["automaton.rss_after_build_mb"],
        "automaton.rss_after_codec_mb": g["automaton.rss_after_codec_mb"],
        "automaton.rss_after_dedup_mb": g["automaton.rss_after_dedup_mb"],
        "treeaction.parse_word_p90_ms": tail([[s.duration for s in tr.select("treeaction.parse_word")]])[0] * 1e3,
        "treeaction.parse_factors_per_s": tr.rate("treeaction.parse_word"),
        "treeaction.act_steps_per_s": tr.rate("treeaction.act"),
        "treeaction.closure_s": tr.median("treeaction.is_identity"),
        "treeaction.closure_nodes.identity": wp.closure_nodes(True),
        "treeaction.closure_nodes.nontrivial": wp.closure_nodes(False),
        "treeaction.closure_nodes_per_s": tr.rate("treeaction.is_identity"),
        "treeaction.sections_per_s": tr.rate("treeaction.root_and_sections"),
        "treeaction.budget_exhausted": wp.budget_exhausted,
        "treeaction.budget_expected": wp.budget_expected,
        "treeaction.verify_relation_s": tr.median("treeaction.verify_relation"),
        "constructions.relator_check_s": tr.median("constructions.relator_check"),
        "nadic.oracle_s": tr.median("nadic.affine_apply_prefix"),
        "nadic.oracle_letters_per_s": tr.rate("nadic.affine_apply_prefix"),
        "linalg.mod_div_per_s": tr.rate("linalg.mod_div"),
        "linalg.mat_vec_per_s": tr.rate("linalg.mat_vec"),
        "cli.overhead_ms": percentile(wp.cli_overhead, 0.5)[0] * 1e3,
        "trace.overhead_ms": (percentile(wall(latencies[True]), 0.5)[0]
                              - percentile(wall(latencies[False]), 0.5)[0]) * 1e3,
    }
    self_time, total = tr.self_times()
    for layer in ("bench",) + LAYERS:
        m[f"{layer}.self_frac"] = self_time[layer] / total
    return m


def run_one(args):
    from workloads import WORKLOADS, peak_rss_mb

    work = os.path.join(OUT, "work")
    os.makedirs(work, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, work)
    tr = Tracer()
    cal = Calibration()
    try:
        try:
            setup_times = wl.prepare(cal)
        except answers.InconsistentAnswer as e:
            print(f"error: inconsistent expected answer, refusing to benchmark: {e}", file=sys.stderr)
            return 3
        latencies, work, attempted, failed = measure(wl, tr, cal, args.seconds, args.trace)
        if args.trace:
            metrics, units = per_layer(tr, wl, latencies), PER_LAYER
        else:
            metrics, units = end_to_end(cal, setup_times, latencies, work, peak_rss_mb()), END_TO_END
    finally:
        wl.cleanup()

    bad = [k for k, v in metrics.items() if not math.isfinite(v)]
    if bad or set(metrics) != set(units):
        print(f"error: metrics not measured: {bad or sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"meta": metadata(args), "setup_times_s": wall(setup_times),
                   "latencies_s": wall(latencies[False]), "traced_latencies_s": wall(latencies[True]),
                   "calibrated_setup_times_s": cal.scale(setup_times),
                   "calibrated_latencies_s": cal.scale(latencies[False]),
                   "reference_s": cal.refs, "spans": tr.records(), **result}, f)
    aliases = ALIASES[args.workload]
    for k, v in metrics.items():
        note = f"  ({aliases[k]})" if k in aliases else ""
        print(f"{k:38s} {v:14.6g} {units[k]}{note}")
    if not args.trace:
        print(f"wall clock, uncalibrated: setup_s={statistics.median(wall(setup_times)):.6g} "
              f"op_p50_ms={percentile(wall(latencies[False]), 0.5)[0] * 1e3:.6g}; "
              f"reference loop median {statistics.median(wall(cal.refs)) * 1e3:.4g} ms "
              f"(nominal {REF_S * 1e3:g} ms) over {len(cal.refs)} runs")
    print(f"ops attempted={attempted} failed={failed} untraced={len(latencies[False])} "
          f"traced={len(latencies[True])} results={os.path.relpath(path, ROOT)}")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    "Every workload untraced and traced, each run in its own interpreter."
    from workloads import WORKLOADS
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            print(f"== {name} trace={trace} exit={proc.returncode}")
            if proc.returncode:
                status = proc.returncode
                continue
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            res = json.loads(lines[-1])
            print(f"{'failed_frac':38s} {res['failed'] / res['attempted']:14.6g} frac")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=["all", "sanov_d4_pipeline", "wp_ladders_d3", "act_oracle_d5"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if load_library() is None:
        print(f"error: no adicaut package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
