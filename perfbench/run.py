#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first call builds perfbench (the
bandana library from src/ plus perfbench/src/) in Release under
.bench_build/perfbench; later calls rebuild only what changed. The last line
of standard output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

with the end-to-end metrics of BENCHMARK.json for --trace 0 and its
per-layer metrics for --trace 1. Earlier lines give host facts and the
workload's sizes. Any failure exits non-zero without a result line.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
DATA = os.path.join(ROOT, ".bench_build", "perfbench-data")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 850
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg, code=1):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def run_quiet(cmd, timeout):
    """Run a build step with its output on stderr; fail on error."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "store.h")):
        fail("no bandana sources under src/: run from the root of a full checkout", 2)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                  BUILD_TIMEOUT_S)
    run_quiet(["cmake", "--build", BUILD, "-j", jobs], BUILD_TIMEOUT_S)


def benchmark_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}", 2)


def run_binary(args, timeout=RUN_TIMEOUT_S):
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("perfbench timed out")


def self_test(spec):
    """Run perfbench's self-test and cross-check BENCHMARK.json's names."""
    proc = run_binary(["--self-test", "--data-dir", DATA])
    sys.stdout.write(proc.stdout)
    ok = proc.returncode == 0
    lists = json.loads(run_binary(["--list-metrics"]).stdout)
    checks = [
        ("workloads", [w["name"] for w in spec["workloads"]], lists["workloads"]),
        ("end_to_end", [[m["name"], m["unit"]] for m in spec["end_to_end"]],
         lists["end_to_end"]),
        ("per_layer", [[m["name"], m["unit"]] for m in spec["per_layer"]],
         lists["per_layer"]),
    ]
    for key, declared, reported in checks:
        same = declared == reported
        print(f"{'ok  ' if same else 'FAIL'}  BENCHMARK.json {key} match perfbench")
        ok = ok and same
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    spec = benchmark_spec()
    build()
    os.makedirs(DATA, exist_ok=True)
    if args.self_test:
        sys.exit(self_test(spec))

    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}", 2)
    proc = run_binary(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(args.seconds), "--trace", str(args.trace),
                       "--data-dir", DATA])
    for name in os.listdir(DATA):
        if name.endswith((".blocks", ".manifest", ".tmp")):
            os.remove(os.path.join(DATA, name))
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stdout.write("".join(l + "\n" for l in lines if not l.startswith('{"correct"')))
        fail(f"perfbench exited with {proc.returncode}", proc.returncode)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("perfbench printed no result line")
    if set(result) != RESULT_KEYS:
        fail(f"malformed result keys: {sorted(result)}")
    expected = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    if sorted(result["metrics"]) != sorted(expected):
        fail("result metrics differ from BENCHMARK.json: "
             f"{sorted(set(result['metrics']) ^ set(expected))}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
