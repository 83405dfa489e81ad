"""Shared pieces of the orcobench scripts (run.py, compare.py).

- the machine fingerprint every result carries, and the rule that refuses to
  compare results taken on different machines;
- the comparison rule for a parent/change pair series (see compare.py);
- loading BENCHMARK.json.
"""

import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build"
RESULTS_DIR = BUILD_DIR / "results"
WORK_DIR = BUILD_DIR / "work"

# Fingerprint fields that must agree before two results may be compared.
# The source identity is recorded but naturally differs between a parent
# and a change.
MACHINE_KEYS = ("cpu_model", "logical_cores", "simd_isa", "compiler",
                "build_type", "cold_store_fs")


def load_benchmark():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def load_expected():
    with open(BENCH_DIR / "expected.json") as f:
        return json.load(f)


def check_expected(detail, expected):
    """Names of the expected rows a result's detail misses: absent, or off
    the recorded value by more than its relative tolerance."""
    misses = []
    for name, want in expected.items():
        got = detail.get(name, {}).get("value")
        if got is None or not math.isfinite(got) or \
                abs(got - want["value"]) > want["rel_tol"] * abs(want["value"]):
            misses.append(name)
    return misses


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _filesystem_of(path):
    """Filesystem type of the mount holding `path` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fs = "", "unknown"
    try:
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1]
                prefix = mount.rstrip("/") + "/"
                if (path == mount or path.startswith(prefix)) and len(mount) > len(best):
                    best, fs = mount, parts[2]
    except OSError:
        pass
    return fs


def source_identity(root=ROOT):
    """git sha when the tree is a git checkout, else a hash of the sources."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0 and sha.stdout.strip():
            return "git:" + sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    files = sorted(p for d in ("src", "orcobench") for p in (root / d).rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for p in files + [root / "CMakeLists.txt"]:
        if p.is_file():
            digest.update(str(p.relative_to(root)).encode())
            digest.update(p.read_bytes())
    return "tree:" + digest.hexdigest()[:16]


def fingerprint(simd_isa, toolchain_file):
    compiler, build_type = "unknown", "unknown"
    try:
        lines = Path(toolchain_file).read_text().splitlines()
        compiler, build_type = lines[0].strip(), lines[1].strip()
    except (OSError, IndexError):
        pass
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    return {
        "cpu_model": _cpu_model(),
        "logical_cores": os.cpu_count(),
        "simd_isa": simd_isa,
        "compiler": compiler,
        "build_type": build_type,
        "cold_store_fs": _filesystem_of(WORK_DIR),
        "source": source_identity(),
    }


class FingerprintMismatch(Exception):
    pass


def check_same_machine(fingerprints):
    """Raises FingerprintMismatch unless every fingerprint agrees on
    MACHINE_KEYS."""
    fingerprints = list(fingerprints)
    if not fingerprints:
        return
    first = {k: fingerprints[0].get(k) for k in MACHINE_KEYS}
    for fp in fingerprints[1:]:
        other = {k: fp.get(k) for k in MACHINE_KEYS}
        if other != first:
            diff = {k: (first[k], other[k]) for k in MACHINE_KEYS if first[k] != other[k]}
            raise FingerprintMismatch(f"fingerprints differ: {diff}")


# ---- the comparison rule -------------------------------------------------------

def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def judge(parent, change, better, bound):
    """Verdict for one metric on one workload over paired runs.

    parent[i] and change[i] are the i-th pair. A gain needs the change to win
    at least nine tenths of the pairs (ties count for neither side) and the
    medians to differ by more than the parent's interquartile spread. Without
    a gain: when the parent's own spread (as a share of its median) is wider
    than the bound the metric is unresolved, unless every change run beats
    every parent run; otherwise the change regresses when its median is
    worse than the parent's by more than the bound.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need equally many parent and change runs")
    lower = better == "lower"

    def beats(a, b):
        return a < b if lower else a > b

    wins = sum(1 for p, c in zip(parent, change) if beats(c, p))
    losses = sum(1 for p, c in zip(parent, change) if beats(p, c))
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    spread = p3 - p1
    rel_spread = spread / abs(pm) if pm else math.inf
    worse_by = ((cm - pm) if lower else (pm - cm)) / abs(pm) if pm else 0.0
    row = {"parent": (p1, pm, p3), "change": (c1, cm, c3), "wins": wins,
           "losses": losses, "pairs": len(parent), "rel_spread": rel_spread,
           "worse_by": worse_by}
    if wins >= math.ceil(0.9 * len(parent)) and abs(cm - pm) > spread and beats(cm, pm):
        row["verdict"] = "gain"
    elif rel_spread > bound:
        all_better = all(beats(c, p) for c in change for p in parent)
        row["verdict"] = "better" if all_better else "unresolved"
    elif worse_by > bound:
        row["verdict"] = "regression"
    else:
        row["verdict"] = "within bound"
    return row
