#!/usr/bin/env python3
"""Decision-path benchmark: sdtw -> stream -> fleet on three workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload fleet-overlap --seed 1 \
        --seconds 10 --trace 0

Builds the `sf` library and the `decbench` program from source into
.bench_build/perfbench (Release), measures the workload, checks every
decision against the offline oracle and the exact counts against earlier
runs of the same binary and seed, and prints a table followed by one JSON
line: {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports
the end-to-end metrics, --trace 1 the per-layer metrics of a traced run
(spans are written to .bench_build/perfbench/traces/).  See
perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("fleet-overlap", "fleet-handoff", "flowcell-lambda")
# Set-up is timed in this many fresh processes (the measured run's own
# set-up is one of them) and reported as the median.
SETUP_SAMPLES = 3
# A measuring run must end within 180 s; its children share this
# budget.  The build (only the first run in a checkout compiles) has its
# own.
RUN_BUDGET_S = 170.0
BUILD_BUDGET_S = 800.0
# Fewest latency samples a session may have for its p90 to have at
# least 10 samples beyond it.
MIN_P90_SAMPLES = 100

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "decbench"


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def program_knobs():
    """Every SF_* environment knob the library under test reads."""
    knobs = set()
    for path in (ROOT / "src").rglob("*"):
        if path.suffix in (".cpp", ".hpp"):
            knobs.update(re.findall(r'"(SF_[A-Z0-9_]+)"', path.read_text()))
    return knobs


def check_knobs():
    """Refuse to measure a program that an environment knob changes."""
    set_knobs = sorted(k for k in program_knobs() if k in os.environ)
    if set_knobs:
        fail("refusing to run with knobs that change the measured "
             "program: " + ", ".join(set_knobs))
    return {k: v for k, v in sorted(os.environ.items())
            if k.startswith("SF_")}


def run_child(cmd, deadline, **kwargs):
    what = " ".join(map(str, cmd))
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("time budget exhausted before " + what, 1)
    try:
        return subprocess.run(cmd, timeout=remaining, check=False, **kwargs)
    except subprocess.TimeoutExpired:
        fail("time budget exhausted in " + what, 1)


def build(deadline):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "decbench",
         "-j", jobs],
    ]
    for cmd in steps:
        proc = run_child(cmd, deadline, stdout=subprocess.PIPE,
                         stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 1)


def cmake_cache(key):
    cache = BUILD_DIR / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return ""


def fingerprint(raw, sf_env):
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], timeout=10,
                                 capture_output=True, text=True,
                                 check=False).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        version = compiler
    return {
        "simd": raw["simd"],
        "nproc": os.cpu_count(),
        "l2_bytes": raw["l2_bytes"],
        "compiler": version,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "sf_env": sf_env,
    }


def decbench(args, deadline):
    proc = run_child([str(BINARY)] + args, deadline,
                     stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        fail(f"decbench {' '.join(args)} exited {proc.returncode}", 1)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def binary_digest():
    return hashlib.sha256(BINARY.read_bytes()).hexdigest()[:16]


EXACT_COUNTS = ("decisions", "chunks", "dp_rows_folded", "cells",
                "virtual_s", "enrichment")


def count_drift(workload, seed, raw):
    """Exact counts must repeat bit for bit for (binary, workload, seed)."""
    record = BUILD_DIR / "counts" / f"{workload}-{seed}-{binary_digest()}.json"
    counts = {k: raw[k] for k in EXACT_COUNTS}
    if record.exists():
        earlier = json.loads(record.read_text())
        return [k for k in EXACT_COUNTS if earlier.get(k) != counts[k]]
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps(counts))
    return []


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(raw, setup_s):
    return {
        "chunks_per_s": metric(raw["chunks_per_s"], "1/s"),
        "decision_p50_ms": metric(raw["p50_us"] / 1e3, "ms"),
        "decision_p90_ms": metric(raw["p90_us"] / 1e3, "ms"),
        "cpu_ms_per_chunk": metric(raw["cpu_ms_per_chunk"], "ms"),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB"),
        "setup_s": metric(setup_s, "s"),
        "enrichment": metric(raw["enrichment"], "x"),
        "oracle_match": metric(1.0 - raw["wrong"] / raw["offered"],
                               "ratio"),
    }


def per_layer(raw, setup):
    wall = raw["wall_s"]
    offline_cps = raw["chunks"] / raw["offline_s"]
    depth = raw["fleet_queue_depth_mean"]
    scaling = (raw["chunks_per_s"] / raw["solo_chunks_per_s"]
               if raw.get("solo_chunks_per_s") else 0.0)
    return {
        "setup.reference_s": metric(setup["reference_s"], "s"),
        "setup.dataset_s": metric(setup["dataset_s"], "s"),
        "setup.calibrate_s": metric(setup["calibrate_s"], "s"),
        "fleet.mean_batch": metric(raw["fleet_mean_batch"], "requests"),
        "fleet.lane_occupancy": metric(raw["fleet_lane_occupancy"],
                                       "ratio"),
        "fleet.dispatches": metric(raw["fleet_dispatches"], "count"),
        "fleet.stat_share": metric(raw["fleet_stat_share"], "ratio"),
        "fleet.queue_depth_mean": metric(depth, "requests"),
        "fleet.queue_depth_max": metric(raw["fleet_queue_depth_max"],
                                        "requests"),
        "fleet.queue_wait_ms_est": metric(
            1e3 * depth / raw["traced_decisions_per_s"], "ms"),
        "fleet.backpressure_stalls": metric(
            raw["fleet_backpressure_stalls"], "count"),
        "fleet.scaling_2v1": metric(scaling, "ratio"),
        "stream.session_wall_skew": metric(raw["session_wall_skew"],
                                           "ratio"),
        "stream.dispatches": metric(raw["stream_dispatches"], "count"),
        "stream.mean_batch": metric(raw["stream_mean_batch"], "requests"),
        "stream.decisions": metric(raw["decisions"], "count"),
        "stream.chunks": metric(raw["chunks"], "count"),
        "stream.dp_rows_folded": metric(raw["dp_rows_folded"], "count"),
        "stream.dp_work_ratio": metric(
            raw["dp_rows_naive"] / raw["dp_rows_folded"], "ratio"),
        "stream.virtual_s": metric(raw["virtual_s"], "s"),
        "stream.latency_samples_min": metric(raw["latency_samples_min"],
                                             "count"),
        "sdtw.cells": metric(raw["cells"], "count"),
        "sdtw.offline_chunks_per_s": metric(offline_cps, "1/s"),
        "sdtw.cells_per_core_s": metric(
            raw["cells"] / (raw["workers"] * wall), "1/s"),
        "pipeline_efficiency": metric(raw["chunks_per_s"] / offline_cps,
                                      "ratio"),
        "trace.overhead": metric(
            raw["traced_chunks_per_s"] / raw["chunks_per_s"], "ratio"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree to build at {ROOT}")
    sf_env = check_knobs()
    build(time.monotonic() + BUILD_BUDGET_S)
    deadline = time.monotonic() + RUN_BUDGET_S

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [decbench(["setup"] + common, deadline)
              for _ in range(SETUP_SAMPLES - 1)]
    trace_file = (BUILD_DIR / "traces" /
                  f"{args.workload}-seed{args.seed}.json")
    trace_file.parent.mkdir(parents=True, exist_ok=True)
    raw = decbench(["run"] + common +
                   ["--seconds", str(args.seconds),
                    "--trace", str(args.trace),
                    "--trace-out", str(trace_file)], deadline)
    setups.append(raw)
    setup = {k: statistics.median(s[k] for s in setups)
             for k in ("reference_s", "dataset_s", "calibrate_s",
                       "setup_s")}

    drifted = count_drift(args.workload, args.seed, raw)
    problems = []
    if raw["wrong"]:
        problems.append(f"{raw['wrong']} decisions missing or unlike "
                        "the oracle")
    if raw["drift"]:
        problems.append(f"{raw['drift']} log entries drifted between "
                        "rounds")
    if drifted:
        problems.append("exact counts drifted: " + ", ".join(drifted))
    if raw["latency_samples_min"] < MIN_P90_SAMPLES:
        problems.append(f"a session has only {raw['latency_samples_min']}"
                        " latency samples; p90 is unsupported")

    metrics = (per_layer(raw, setup) if args.trace
               else end_to_end(raw, setup["setup_s"]))

    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": fingerprint(raw, sf_env), "raw": raw, "setup": setup,
        "metrics": metrics, "problems": problems,
    }
    results_dir = BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
     ".json").write_text(json.dumps(result, indent=1))

    host = result["host"]
    print(f"workload {args.workload}  seed {args.seed}  workers "
          f"{raw['workers']}  rounds {raw['rounds']}  host: "
          f"{host['simd']}, {host['nproc']} cpus, L2 {host['l2_bytes']} B, "
          f"{host['compiler']}, {host['build_type']}, "
          f"SF_* {host['sf_env'] or 'none'}")
    print(f"latency samples per session >= {raw['latency_samples_min']}; "
          f"error_rate {raw['wrong'] / raw['offered']:.6f} "
          f"({raw['wrong']} of {raw['offered']} reads offered)")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:>18.6g} {m['unit']}")
    if args.trace:
        print(f"spans written to {trace_file}")
    for problem in problems:
        print("FAILED: " + problem)

    print(json.dumps({
        "correct": not problems,
        "attempted": raw["offered"],
        "failed": raw["wrong"] + raw["drift"] + len(drifted),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
