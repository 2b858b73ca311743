#!/usr/bin/env python3
"""Builds the rpcscope benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_dense --seed 1 --seconds 30 --trace 0

The first run configures and compiles perfbench/ (which pulls in src/) as a
Release build under .bench_build/; later runs only re-check it. A build that
is not Release, or a binary compiled without NDEBUG, is refused. The workload
binary's output is passed through; its last line is the JSON result, and the
exit code is non-zero when the build fails, an output check fails, or the
reported metrics do not match the lists in BENCHMARK.json.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BUILD_ROOT, "cmake")
WORK_DIR = os.path.join(BUILD_ROOT, "run")
WORKLOADS = ("fleet_dense", "fleet_epochs", "catalog_scan")
# The workload binary runs for --seconds plus the warm-up repetition and the
# last cycle, about 20 s more; the timeout only guards against a hang.
RUN_MARGIN_S = 140


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env():
    """Environment for the build and the run: temporary files stay in the
    checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def run_logged(cmd, log_path, timeout):
    """Runs `cmd` with its output in `log_path`; on failure shows the tail."""
    with open(log_path, "w") as log:
        try:
            code = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), timeout=timeout,
                                  check=False).returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"{' '.join(cmd[:2])} failed (log: {log_path})")


def build():
    os.makedirs(BUILD_ROOT, exist_ok=True)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no rpcscope sources under {ROOT}/src; run from a full checkout")
    run_logged(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", CMAKE_DIR,
                "-DCMAKE_BUILD_TYPE=Release"],
               os.path.join(BUILD_ROOT, "configure.log"), timeout=300)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_logged(["cmake", "--build", CMAKE_DIR, "--target", "perfbench", "-j", jobs],
               os.path.join(BUILD_ROOT, "build.log"), timeout=1500)
    # Refuse a non-Release build: its numbers would be compared against
    # Release ones. The binary also refuses to run without NDEBUG.
    with open(os.path.join(CMAKE_DIR, "CMakeCache.txt")) as cache:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache.read():
            fail(f"{CMAKE_DIR} is not a Release build")
    return os.path.join(CMAKE_DIR, "perfbench")


def expected_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, or None without it."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", f"{args.seconds:g}", "--trace", str(args.trace),
           "--work-dir", WORK_DIR]
    timeout = args.seconds + RUN_MARGIN_S
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=child_env(),
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {timeout:g} s")
    lines = proc.stdout.rstrip("\n").splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    # On a bad result the binary's output goes to stderr, so stdout carries
    # no result line.
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed",
                                                       "metrics"}:
        sys.stderr.write(proc.stdout)
        fail(f"no result line from the workload binary (exit code {proc.returncode})")
    want = expected_metrics(args.trace == 1)
    if want is not None and set(result["metrics"]) != want:
        sys.stderr.write(proc.stdout)
        fail("reported metrics differ from BENCHMARK.json: "
             f"extra {sorted(set(result['metrics']) - want)}, "
             f"missing {sorted(want - set(result['metrics']))}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
