#!/usr/bin/env python3
"""Build and run the HotC end-to-end benchmark.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--steadiness RUNS]

Run from the repository root.  The first run configures and builds
perfbench/ (the library sources under src/ plus the benchmark binary) in
Release mode under $CARGO_TARGET_DIR, default .bench_build/; later runs
rebuild only what changed.  Build output goes to stderr.

One run prints the benchmark binary's report and, as its last line, one
JSON object with the keys correct, attempted, failed and metrics
(end-to-end metrics with --trace 0, per-layer metrics with --trace 1).
The exit status is the binary's: 0 ok, 1 a correctness check failed,
3 the run is invalid.

--steadiness RUNS runs the workload RUNS times on seeds N, N+1, ... and
prints each metric's median, quartiles and quartile spread as a share of
the median: the figures the regression bounds in BENCHMARK.json rest on.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ("warm-steady", "overload-churn", "threaded-ladder")
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure once, then build incrementally; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: library sources (src/) not found next to "
                 "perfbench/; run from a full checkout")
    bdir = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "hotc_perfbench",
                  "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(cmd))
    return os.path.join(bdir, "hotc_perfbench")


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unavailable"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "unavailable"


def source_digest():
    """SHA-256 over the sources the binary is built from (paths and bytes),
    so a result names its code even outside a git checkout."""
    h = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), BENCH_DIR,
             os.path.join(ROOT, "bench", "bench_meta.hpp")]
    files = []
    for root in roots:
        if os.path.isfile(root):
            files.append(root)
            continue
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            files.extend(os.path.join(dirpath, f) for f in filenames)
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def run_once(binary, workload, seed, seconds, trace, provenance):
    """Returns (exit status, stdout text, parsed last-line JSON or None)."""
    spans = os.path.join(build_dir(), "spans")
    os.makedirs(spans, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--spans-dir", spans, "--git-sha", provenance[0],
           "--source-digest", provenance[1]]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, "# perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S, None
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, proc.stdout, result


def steadiness(binary, args, provenance):
    values = {}
    units = {}
    status = 0
    for i in range(args.steadiness):
        seed = args.seed + i
        code, _, result = run_once(binary, args.workload, seed, args.seconds,
                                   args.trace, provenance)
        if code != 0 or result is None or not result.get("correct"):
            print("# seed %d: run failed (exit %d)" % (seed, code))
            status = 1
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print("# seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (k, v["value"]) for k, v in result["metrics"].items())))
    print("# %s, %d runs, seeds %d..%d, %s s, trace %d" % (
        args.workload, args.steadiness, args.seed,
        args.seed + args.steadiness - 1, args.seconds, args.trace))
    print("# %-28s %14s %14s %14s %10s  unit" % (
        "metric", "median", "q1", "q3", "spread"))
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
        else:
            q1 = q3 = vals[0]
        spread = (q3 - q1) / abs(med) if med else 0.0
        print("  %-28s %14.6g %14.6g %14.6g %10.4f  %s" % (
            name, med, q1, q3, spread, units[name]))
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="RUNS")
    args = parser.parse_args()

    binary = build()
    provenance = (git_sha(), source_digest())
    if args.steadiness > 0:
        return steadiness(binary, args, provenance)
    code, out, _ = run_once(binary, args.workload, args.seed, args.seconds,
                            args.trace, provenance)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
