#!/usr/bin/env python3
"""Repository benchmark: builds the library and the perfbench binary
from source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload bcast_paper --seed 1 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one
JSON object {correct, attempted, failed, metrics}. With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json; with --trace 1
the run is made twice, untraced and traced, and the metrics are the
per-layer ones. A human-readable summary goes to standard error and the
full record, spans included, to .bench_build/reports/. See
perfbench/NOTES.md for what each workload and metric means.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import analysis  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_ROOT = ROOT / ".bench_build"
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REPORT_DIR = BUILD_ROOT / "reports"

WORKLOADS = ("bcast_paper", "allreduce_paper", "serve_swap", "stream_100k")
BUILD_TIMEOUT_S = 840
# Each workload process may take --seconds of timed work plus this
# allowance for its set-up, the overrun of its last timed unit and its
# checks. The processes of one invocation share the sum of their
# budgets, counted from the end of the build, up to RUN_BUDGET_S: a
# run ends within three minutes of its build.
PROCESS_ALLOWANCE_S = 70
RUN_BUDGET_S = 170
BUILD_JOBS = "4"


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns False
    and logs the build output on failure."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"error: library sources not found under {ROOT / 'src'}")
        return False
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", BUILD_JOBS])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for step in steps:
        try:
            done = subprocess.run(step, capture_output=True, text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as error:
            log(f"error: build step failed: {error}")
            return False
        if done.returncode != 0:
            log(f"error: build step failed: {' '.join(step)}")
            log((done.stdout + done.stderr)[-4000:])
            return False
    return BINARY.is_file()


def clean_env():
    """The caller's environment without the library's MPICSEL_* switches,
    so every run measures the default configuration."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MPICSEL_")}


def run_binary(workload, seed, seconds, trace, deadline):
    """Runs one workload process and returns its raw record, or None."""
    command = [str(BINARY), workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", "1" if trace else "0"]
    try:
        done = subprocess.run(command, capture_output=True, text=True,
                              env=clean_env(),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"error: {workload} did not finish within its time budget")
        return None
    if done.stderr:
        log(done.stderr.rstrip())
    if done.returncode != 0:
        log(f"error: {workload} exited with code {done.returncode}")
        return None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"error: {workload} printed no record")
        return None


def end_to_end(raw):
    """The end-to-end metrics of one untraced record."""
    return {
        "setup_s": (analysis.median(raw["setup_s"]), "s"),
        "solve_s": (analysis.unit_time(raw["solve_s"]), "s"),
        "peak_rss_mb": (raw["peak_rss_kib"] / 1024.0, "MB"),
    }


def per_layer(untraced, traced):
    """The per-layer metrics from an untraced and a traced record of the
    same seed. Ratios keep their base in the returned notes."""
    layers = traced["layers"]
    base = untraced["layers"]
    spans = traced["spans"]

    def get(name, source=layers):
        return float(source.get(name, 0.0))

    ratios = {}

    def ratio(name, numerator, denominator):
        r = analysis.ratio(numerator, denominator)
        ratios[name] = r
        return r["value"]

    ops = get("ops")
    untraced_solve = analysis.unit_time(untraced["solve_s"])
    traced_solve = analysis.unit_time(traced["solve_s"])
    ns_per_event = ratio("sim.replay_ns_per_event", get("sim_warm_ns"),
                         get("sim_warm_events"))
    selections = span_durations_ms(spans, "model.select_point")
    # Served-lookup latencies exist on serve_swap only.
    lookup_ns = untraced["lookup_ns"]
    lookup_p50 = analysis.percentile(lookup_ns, 50.0) if lookup_ns else 0.0
    # The tail rule: the highest percentile up to p99 with at least ten
    # samples beyond it, recorded with the percentile it reached.
    tail = analysis.tail_percentile(lookup_ns, wanted=99.0)
    ratios["serve.lookup_p99_ns"] = {"percentile": tail[0] if tail else None,
                                     "samples": len(lookup_ns)}
    metrics = {
        "coll.build_ns_per_op": (ratio("coll.build_ns_per_op",
                                       get("coll_build_ns"), ops), "ns"),
        "mpi.lower_ns_per_op": (ratio("mpi.lower_ns_per_op",
                                      get("mpi_lower_ns"), ops), "ns"),
        "mpi.compiled_bytes_per_op": (ratio("mpi.compiled_bytes_per_op",
                                            get("mpi_compiled_bytes"), ops), "B"),
        "mpi.intern_builds": (get("intern_builds"), "count"),
        "mpi.intern_hit_ratio": (ratio("mpi.intern_hit_ratio", get("intern_hits"),
                                       get("intern_hits") + get("intern_builds")),
                                 "ratio"),
        "sim.replays": (get("replays"), "count"),
        "sim.events": (get("events"), "count"),
        "sim.replay_ns_per_event": (ns_per_event, "ns"),
        "sim.arena_reuse_ratio": (ratio("sim.arena_reuse_ratio",
                                        get("arena_reuses"), get("replays")),
                                  "ratio"),
        "sim.replay_share_est": (ratio("sim.replay_share_est",
                                       get("events") * ns_per_event / 1e9,
                                       untraced_solve), "ratio"),
        "stream.ns_per_event": (ratio("stream.ns_per_event",
                                      get("stream_seconds") * 1e9,
                                      get("stream_events")), "ns"),
        "stream.peak_events": (get("stream_peak_events"), "count"),
        "stream.footprint_mb": (get("stream_footprint_bytes") / 2**20, "MB"),
        "stream.cold_replay_s": (get("stream_cold_replay_s"), "s"),
        # bcast_paper counts selection replays, allreduce_paper the
        # observations of its measurements; the other is 0.
        "stat.reps_per_measurement": (ratio(
            "stat.reps_per_measurement",
            get("select_replays") + get("select_observations"),
            get("select_measurements")), "count"),
        "stat.calib_retries": (get("calib_retries"), "count"),
        "stat.pool_busy_share": (ratio("stat.pool_busy_share", get("cpu_s"),
                                       get("solve_s") * get("pool_threads")),
                                 "ratio"),
        "stat.pool_steal_share": (ratio("stat.pool_steal_share",
                                        get("pool_steals"), get("pool_tasks")),
                                  "ratio"),
        "model.calibrate_s": (sum(span_durations_ms(spans, "model.calibrate"))
                              / 1e3, "s"),
        "model.gamma_fit_ms": (get("gamma_fit_ns") / 1e6, "ms"),
        "model.select_point_ms": (mean_or_zero(selections), "ms"),
        "model.table_build_ms": (get("table_build_ns") / 1e6, "ms"),
        "model.worst_deg_pct": (get("model_worst_deg_pct"), "%"),
        "model.near_opt_share": (get("model_near_opt_share"), "ratio"),
        "audit.ms": (sum(span_durations_ms(spans, "audit")), "ms"),
        "audit.checks": (get("audit_checks"), "count"),
        "audit.violations": (get("audit_violations"), "count"),
        "serve.image_compile_us": (get("image_compile_us", base) or
                                   mean_or_zero(span_durations_ms(
                                       spans, "serve.image_compile")) * 1e3,
                                   "us"),
        "serve.lookup_p50_ns": (lookup_p50, "ns"),
        "serve.lookup_p99_ns": (tail[1] if tail else 0.0, "ns"),
        "serve.lookups_per_s": (ratio("serve.lookups_per_s", untraced["lookups"],
                                      untraced["lookup_seconds"]), "1/s"),
        "serve.single_p50_ns": (get("single_p50_ns", base), "ns"),
        "serve.multi_single_ratio": (ratio("serve.multi_single_ratio", lookup_p50,
                                           get("single_p50_ns", base)), "ratio"),
        "serve.publish_p50_us": (get("publish_p50_us", base), "us"),
        "serve.swaps": (get("swaps", base), "count"),
        "serve.retired_max": (get("retired_max", base), "count"),
        "obs.trace_overhead": (ratio("obs.trace_overhead",
                                     traced_solve - untraced_solve,
                                     untraced_solve), "ratio"),
    }
    return metrics, ratios


def mean_or_zero(values):
    return sum(values) / len(values) if values else 0.0


def span_durations_ms(spans, name):
    return [d / 1e6 for d in analysis.span_durations(spans, name)]


def write_report(name, report):
    REPORT_DIR.mkdir(parents=True, exist_ok=True)
    path = REPORT_DIR / f"{name}.json"
    path.write_text(json.dumps(report, indent=1, sort_keys=True))
    return path


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not build():
        return 1
    processes = 2 if args.trace else 1
    deadline = time.monotonic() + min(
        RUN_BUDGET_S, processes * (args.seconds + PROCESS_ALLOWANCE_S))
    untraced = run_binary(args.workload, args.seed, args.seconds, False, deadline)
    if untraced is None:
        return 1
    records = {"untraced": untraced}
    attempted, failed = untraced["attempted"], untraced["failed"]
    failures = [untraced["failures"]] if untraced["failures"] else []

    e2e = end_to_end(untraced)
    notes = {}
    if args.trace:
        traced = run_binary(args.workload, args.seed, args.seconds, True, deadline)
        if traced is None:
            return 1
        records["traced"] = traced
        attempted += traced["attempted"]
        failed += traced["failed"]
        if traced["failures"]:
            failures.append(traced["failures"])
        # Tracing must change no computed result.
        attempted += 1
        same = (traced["result_hash"] == untraced["result_hash"] and
                all(traced["layers"].get(k) == untraced["layers"].get(k)
                    for k in ("model_worst_deg_pct", "model_near_opt_share")))
        if not same:
            failed += 1
            failures.append("traced and untraced runs computed different results")
        metrics, ratios = per_layer(untraced, traced)
        notes["ratios"] = ratios
        notes["self_time_ms"] = {name: ns / 1e6 for name, ns in
                                 analysis.self_times(traced["spans"]).items()}
    else:
        metrics = e2e

    correct = failed == 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    report = write_report(
        f"{args.workload}-seed{args.seed}-trace{args.trace}",
        {"args": vars(args), "result": result, "end_to_end": e2e,
         "notes": notes, "failures": failures, "records": records})
    for name, (value, unit) in metrics.items():
        log(f"{args.workload:16} {name:28} {value:14.6g} {unit}")
    for problem in failures:
        log(f"FAILED: {problem}")
    log(f"report: {report.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
