#!/usr/bin/env python3
"""The repository benchmark: builds the orco library and the load generator
from source, runs one workload (or all of them), checks the outputs and
prints every metric by name with its unit.

Run from the repository root:

    python3 orcobench/run.py --workload serve_closed_gtsrb --seed 1 --seconds 10 --trace 0
    python3 orcobench/run.py --all            # every workload, untraced then traced
    python3 orcobench/run.py --selftest       # the benchmark's own tests

The last stdout line of a single-workload run is one JSON object with the
keys correct, attempted, failed and metrics: the end-to-end metrics of
BENCHMARK.json when --trace 0, its per-layer metrics when --trace 1. The full
result, fingerprint and workload detail included, is saved under
.bench_build/results/. The exit code is non-zero when the build fails or
any correctness gate fails.
"""

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import unittest

import benchlib

BUILD = benchlib.BUILD_DIR / "cmake"
BINARY = BUILD / "orcobench"
SELFTEST = BUILD / "orcobench_selftest"
RUN_TIMEOUT_S = 170


def build():
    """Configures once, then brings the build up to date. Build output goes
    to .bench_build/build.log; on failure its tail goes to stderr."""
    benchlib.BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = benchlib.BUILD_DIR / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(benchlib.BENCH_DIR), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("orcobench: build failed\n" + "\n".join(tail) + "\n")
                return False
    return True


def no_aslr_prefix():
    """Runs the load generator with address-space randomization off where
    the host allows it: otherwise each run draws its own memory layout, and
    layout alone moved fleet throughput by ~20% between identical runs."""
    prefix = ["setarch", platform.machine(), "-R"]
    if shutil.which("setarch") is None:
        return []
    probe = subprocess.run(prefix + ["true"], capture_output=True)
    return prefix if probe.returncode == 0 else []


def run_workload(workload, seed, seconds, trace, benchmark):
    """Runs one workload; returns (result document, final line object)."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    cmd = no_aslr_prefix() + [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", str(benchlib.WORK_DIR),
           "--span-file", str(benchlib.BUILD_DIR / "spans" / f"{tag}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload}: load generator exited with {proc.returncode}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["fingerprint"] = benchlib.fingerprint(doc["simd_isa"], BUILD / "toolchain.txt")

    section = "per_layer" if trace else "end_to_end"
    declared = benchmark[section]
    metrics, missing = {}, []
    for m in declared:
        got = doc[section].get(m["name"])
        if got is None or got["value"] is None or not math.isfinite(got["value"]):
            missing.append(m["name"])
            continue
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    # Values the workload must reproduce whatever the seed (its anchor-seed
    # rows), as recorded in orcobench/expected.json.
    expected = benchlib.load_expected().get(workload)
    if expected:
        doc["expected_misses"] = benchlib.check_expected(doc["detail"], expected)
        doc["checks"]["matches_expected_values"] = not doc["expected_misses"]
    failed_checks = [name for name, ok in doc["checks"].items() if not ok]
    doc["correct"] = not failed_checks and not missing
    doc["failed_checks"] = failed_checks
    doc["missing_metrics"] = missing

    benchlib.RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    with open(benchlib.RESULTS_DIR / f"{tag}.json", "w") as f:
        json.dump(doc, f, indent=1)
    line = {"correct": doc["correct"], "attempted": doc["attempted"],
            "failed": doc["failed"], "metrics": metrics}
    return doc, line


def print_report(doc):
    fp = doc["fingerprint"]
    print(f"== {doc['workload']} seed={doc['seed']} trace={doc['trace']} "
          f"seconds={doc['seconds']}")
    print(f"   machine: {fp['cpu_model']}, {fp['logical_cores']} cores, "
          f"simd {fp['simd_isa']}, {fp['compiler']} {fp['build_type']}, "
          f"cold store on {fp['cold_store_fs']}, source {fp['source']}")
    for section in ("end_to_end", "per_layer", "detail"):
        for name, m in doc[section].items():
            value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
            print(f"   {section:10s} {name:44s} {value:>14s} {m['unit']}")
    for name, ok in doc["checks"].items():
        print(f"   check      {name:44s} {'ok' if ok else 'FAILED'}")
    for name in doc["missing_metrics"]:
        print(f"   missing    {name}")
    print(f"   attempted {doc['attempted']}, failed {doc['failed']}, "
          f"correct {doc['correct']}")


def selftest():
    if not build():
        return 1
    rc = subprocess.run([str(SELFTEST)]).returncode
    suite = unittest.defaultTestLoader.discover(str(benchlib.BENCH_DIR / "tests"))
    ok = unittest.TextTestRunner(verbosity=1).run(suite).wasSuccessful()
    return 0 if rc == 0 and ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="run every workload, untraced then traced")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    if args.selftest:
        return selftest()
    benchmark = benchlib.load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    names = [w["name"] for w in benchmark["workloads"]]
    if args.all:
        runs = [(w, t) for w in names for t in (0, 1)]
    elif args.workload in names:
        runs = [(args.workload, args.trace)]
    else:
        parser.error(f"--workload must be one of {names} (or use --all)")
    if not build():
        return 1

    all_correct, line = True, None
    for workload, trace in runs:
        try:
            doc, line = run_workload(workload, args.seed, seconds, trace, benchmark)
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as e:
            sys.stderr.write(f"orcobench: {e}\n")
            return 1
        print_report(doc)
        all_correct = all_correct and doc["correct"]
    if not args.all:
        print(json.dumps(line))
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
