#!/usr/bin/env python3
"""Builds the benchmark runner from this checkout and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The checkout is the directory above perfbench/.  The first call configures
and builds the oal library plus perfbench_runner (Release) into
<checkout>/.bench_build; later calls only re-check the build.  Build output
goes to stderr, so the runner's result line — one JSON object — is the last
line of stdout.  With --trace 1 the spans are written to
.bench_build/spans/<workload>-seed<n>.json.

Exits non-zero without a result line when the program cannot be built or the
runner produces no result, and with the runner's exit code otherwise.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("online_il", "fleet_thermal", "gpu_enmpc")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the runner; returns its path or None."""
    env = dict(os.environ)
    env["TMPDIR"] = os.path.join(BUILD, "tmp")  # compiler temporaries stay in the checkout
    os.makedirs(env["TMPDIR"], exist_ok=True)
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench_runner", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            return None
    runner = os.path.join(BUILD, "perfbench_runner")
    return runner if os.access(runner, os.X_OK) else None


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    runner = build()
    if runner is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [runner, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans_dir = os.path.join(BUILD, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd += ["--spans-out",
                os.path.join(spans_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: runner timed out", file=sys.stderr)
        return 1
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        if lines:
            print(lines[-1])
        print("perfbench: runner exited %d without a result" % proc.returncode, file=sys.stderr)
        return proc.returncode or 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
