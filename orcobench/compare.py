#!/usr/bin/env python3
"""Compares a parent and a change checkout on the repository benchmark.

    python3 orcobench/compare.py --parent ../parent --change . [--pairs 10]
        [--workload fleet_zipf_churn ...] [--extra time_to_loss_s:lower:0.1]

Runs at least ten parent/change pairs per workload with identical benchmark
settings, alternating which side runs first, on seeds first_seed+i. Stops
with a non-zero exit when any run exits non-zero or fails a correctness
gate, naming the side and seed. Refuses to compare when any two results
carry different machine fingerprints. Prints one row per workload and
metric:

- gain: the change won at least nine tenths of the pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  spread;
- unresolved: the parent's own spread, as a share of its median, is wider
  than the metric's bound (unless every change run beats every parent run);
- regression / within bound: the change's median is / is not worse than the
  parent's by more than the bound.

The share of failed operations is compared as well: a change that fails
more operations than its parent is flagged whatever its speed.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import benchlib


class RunFailed(Exception):
    pass


def run_side(side, checkout, workload, seed, seconds):
    """Runs one workload in `checkout` and returns its full result document.
    The result file is removed first, so a run that fails to write one can
    never be judged on an earlier run's figures; a run that exits non-zero
    or fails a correctness gate fails the comparison."""
    result = Path(checkout) / ".bench_build" / "results" / f"{workload}-seed{seed}-trace0.json"
    result.unlink(missing_ok=True)
    cmd = [sys.executable, "orcobench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    where = f"{side} ({checkout}): {workload} seed {seed}"
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise RunFailed(f"{where} exited with {proc.returncode}")
    with open(result) as f:
        doc = json.load(f)
    if not doc["correct"]:
        raise RunFailed(f"{where} failed checks {doc['failed_checks']}, "
                        f"missing metrics {doc['missing_metrics']}")
    return doc


def metric_value(doc, name):
    for section in ("end_to_end", "detail"):
        m = doc[section].get(name)
        if m is not None and m["value"] is not None:
            return m["value"]
    raise KeyError(f"{doc['workload']}: no metric {name}")


def failed_share(docs):
    attempted = sum(d["attempted"] for d in docs)
    return sum(d["failed"] for d in docs) / attempted if attempted else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--first-seed", type=int, default=1000)
    parser.add_argument("--extra", action="append", default=[],
                        help="detail metric to compare too, as name:better:bound")
    args = parser.parse_args()
    if args.pairs < 10:
        parser.error("the rule needs at least 10 pairs")

    benchmark = benchlib.load_benchmark()
    seconds = args.seconds or benchmark["run_seconds"]
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    metrics = [(m["name"], m["better"], m["bound"]) for m in benchmark["end_to_end"]]
    for extra in args.extra:
        name, better, bound = extra.split(":")
        metrics.append((name, better, float(bound)))

    runs = {}
    for workload in workloads:
        parent_docs, change_docs = [], []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = [("parent", args.parent), ("change", args.change)]
            if i % 2:
                order.reverse()
            for side, checkout in order:
                try:
                    doc = run_side(side, checkout, workload, seed, seconds)
                except RunFailed as e:
                    print(f"comparison failed: {e}")
                    return 1
                (parent_docs if side == "parent" else change_docs).append(doc)
        runs[workload] = (parent_docs, change_docs)

    try:
        benchlib.check_same_machine(
            d["fingerprint"] for p, c in runs.values() for d in p + c)
    except benchlib.FingerprintMismatch as e:
        print(f"refusing to compare: {e}")
        return 2

    print(f"{'workload':20s} {'metric':22s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s} {'wins':>7s}  verdict")
    for workload, (parent_docs, change_docs) in runs.items():
        for name, better, bound in metrics:
            row = benchlib.judge([metric_value(d, name) for d in parent_docs],
                                 [metric_value(d, name) for d in change_docs],
                                 better, bound)
            fmt = lambda q: "/".join(f"{v:.4g}" for v in q)
            print(f"{workload:20s} {name:22s} {fmt(row['parent']):>34s} "
                  f"{fmt(row['change']):>34s} {row['wins']:>3d}/{row['pairs']:<3d}  "
                  f"{row['verdict']}")
        pf, cf = failed_share(parent_docs), failed_share(change_docs)
        verdict = "more failures" if cf > pf else "no more failures"
        print(f"{workload:20s} {'failed_share':22s} {pf:>34.4g} {cf:>34.4g} "
              f"{'':>7s}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
