#!/usr/bin/env python3
"""Builds and runs the host-time benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload fig4_sweep --seed 1 --seconds 25 --trace 0

The first call configures and builds perfbench/ (which compiles the orv
library from src/) into .bench_build/perfbench; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result, checked against the metrics BENCHMARK.json
lists for the mode (exit code 1 if it does not match). With --trace 1 the spans of the traced run
are written to .bench_build/perfbench/traces/<workload>-<seed>.jsonl.

    python3 perfbench/run.py --selftest

runs the benchmark's own tests (perfbench/selftest.py).
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("fig4_sweep", "views_local", "session_mix")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(4, os.cpu_count() or 1))
    result = subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr,
                            timeout=BUILD_TIMEOUT_S)
    return result.returncode == 0 and os.path.exists(BINARY)


def run(workload, seed, seconds, trace, flip_check=None):
    """Runs one measurement; returns (exit code, stdout text)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--work-dir", os.path.join(BUILD_DIR, "work")]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(trace_dir, f"{workload}-{seed}.jsonl")]
    if flip_check is not None:
        cmd += ["--flip-check", str(flip_check)]
    try:
        result = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, ""
    return result.returncode, result.stdout


def result_problem(out, trace):
    """Why the run's last stdout line is not a valid result, or None.

    The result must hold exactly the metrics BENCHMARK.json lists for the
    mode (end-to-end for --trace 0, per-layer for --trace 1), each in its
    listed unit, and no end-to-end metric may be 0.
    """
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    listed = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return "the last line is not a result object"
    metrics = result["metrics"]
    missing = sorted(set(listed) - set(metrics))
    unlisted = sorted(set(metrics) - set(listed))
    if missing or unlisted:
        return f"metrics missing {missing}, unlisted {unlisted}"
    wrong = sorted(n for n, m in metrics.items() if m["unit"] != listed[n])
    if wrong:
        return f"metrics in the wrong unit: {wrong}"
    zero = sorted(n for n, m in metrics.items() if m["value"] == 0)
    if zero and not trace:
        return f"end-to-end metrics that read 0: {zero}"
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("perfbench: the library sources (src/) are missing",
              file=sys.stderr)
        return 1
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.selftest:
        sys.dont_write_bytecode = True
        sys.path.insert(0, HERE)
        import selftest
        return selftest.main(run, WORKLOADS, result_problem)
    code, out = run(args.workload, args.seed, args.seconds, args.trace)
    problem = result_problem(out, args.trace) if code == 0 else None
    if problem:
        sys.stderr.write(out)
        print(f"perfbench: invalid result: {problem}", file=sys.stderr)
        return 1
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
