#!/usr/bin/env python3
"""Records one point of the BENCH_*.json performance trajectory.

    cmake -B build -S . && cmake --build build -j
    python3 tools/bench_trajectory.py --out BENCH_<n>.json [--build build]

Two kinds of measurement, both untraced:
  * perfbench: each workload of perfbench/run.py (online_il, fleet_thermal,
    gpu_enmpc) once at seed 1 and BENCHMARK.json's run_seconds, the same run
    the benchmark makes; its result line is stored as printed.
  * paper benches: every bench_* binary in the build directory except
    bench_overhead (a google-benchmark microbenchmark, not a paper result),
    run cold (no --store) with stdout discarded.  Wall time is measured
    around the child; user/system CPU and max RSS come from the child's own
    rusage (os.wait4, the per-child form of getrusage(RUSAGE_CHILDREN):
    the RUSAGE_CHILDREN maximum RSS is a running maximum over every child
    reaped so far, so it cannot attribute a peak to one bench).  Linux
    carries the forking process's memory high-water mark into the child's
    max RSS at exec, so a child reading at or below this script's own peak
    RSS (~14-15 MB) may be the script's and not the bench's: max_rss_mb is
    then stored as null and left out of the diff.

The file is written to --out, and a table of differences against the
highest-numbered other BENCH_*.json in the same directory is printed;
perfbench metrics are compared only when both points ran the same seed and
run length.  The
script reports only: slower numbers never change its exit status, and a
bench that fails is recorded with its exit code.
"""
import argparse
import datetime
import glob
import json
import os
import platform
import re
import resource
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("online_il", "fleet_thermal", "gpu_enmpc")
SEED = 1
SKIPPED_BENCHES = ("bench_overhead",)


def git_commit():
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, capture_output=True, text=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_perfbench(workload, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not isinstance(result, dict):
        return {"exit": proc.returncode, "error": "no result line"}
    result["exit"] = proc.returncode
    return result


def run_bench(path):
    # ru_maxrss is KiB on Linux.  A child reading not above this process's own
    # peak may be carrying that peak over from the fork, so it is no measurement.
    floor_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    start = time.monotonic()
    proc = subprocess.Popen([path], cwd=ROOT, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "exit": proc.returncode,
        "wall_s": round(wall, 4),
        "user_s": round(usage.ru_utime, 4),
        "sys_s": round(usage.ru_stime, 4),
        "max_rss_mb": round(usage.ru_maxrss / 1024.0, 2) if usage.ru_maxrss > floor_kib else None,
    }


def perfbench_run(point):
    pb = point.get("perfbench", {})
    return pb.get("seed"), pb.get("seconds")


def flatten(point, with_perfbench=True):
    """{metric path: number} for every comparable number of a trajectory point."""
    out = {}
    workloads = point.get("perfbench", {}).get("workloads", {}) if with_perfbench else {}
    for w, res in workloads.items():
        for name, m in res.get("metrics", {}).items():
            if isinstance(m, dict) and isinstance(m.get("value"), (int, float)):
                out["perfbench/%s/%s" % (w, name)] = m["value"]
    for b, res in point.get("benches", {}).items():
        for name in ("wall_s", "user_s", "max_rss_mb"):
            if isinstance(res.get(name), (int, float)):
                out["bench/%s/%s" % (b, name)] = res[name]
    return out


def previous_point(out_path):
    def number(p):
        m = re.fullmatch(r"BENCH_(\d+)\.json", os.path.basename(p))
        return int(m.group(1)) if m else -1
    directory = os.path.dirname(os.path.abspath(out_path))
    others = [p for p in glob.glob(os.path.join(directory, "BENCH_*.json"))
              if os.path.abspath(p) != os.path.abspath(out_path) and number(p) >= 0]
    return max(others, key=number) if others else None


def print_diff(prev_path, prev, cur):
    same_run = perfbench_run(prev) == perfbench_run(cur)
    a, b = flatten(prev, same_run), flatten(cur, same_run)
    print("\nchange against %s (ratio = new / old; timings are not gated):"
          % os.path.basename(prev_path))
    if not same_run:
        print("perfbench left out: (seed, seconds) %s there vs %s here are not comparable"
              % (perfbench_run(prev), perfbench_run(cur)))
    print("%-48s %14s %14s %8s" % ("metric", "old", "new", "ratio"))
    for key in sorted(set(a) | set(b)):
        old, new = a.get(key), b.get(key)
        ratio = "%.3f" % (new / old) if old and new is not None else "-"
        print("%-48s %14s %14s %8s" % (key, "-" if old is None else "%.6g" % old,
                                       "-" if new is None else "%.6g" % new, ratio))


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", required=True, help="trajectory file, e.g. BENCH_16.json")
    parser.add_argument("--build", default=os.path.join(ROOT, "build"),
                        help="build directory holding the bench_* binaries")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        seconds = int(json.load(f)["run_seconds"])
    benches = sorted(p for p in glob.glob(os.path.join(args.build, "bench_*"))
                     if os.access(p, os.X_OK) and os.path.basename(p) not in SKIPPED_BENCHES)
    if not benches:
        parser.error("no bench_* binaries in %s; build first" % args.build)

    point = {
        "schema": 1,
        "commit": git_commit(),
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "system": platform.system()},
        "perfbench": {"seed": SEED, "seconds": seconds, "trace": 0, "workloads": {}},
        "benches": {},
    }
    for w in WORKLOADS:
        print("perfbench %s ..." % w, file=sys.stderr, flush=True)
        point["perfbench"]["workloads"][w] = run_perfbench(w, seconds)
    for path in benches:
        name = os.path.basename(path)
        print("%s ..." % name, file=sys.stderr, flush=True)
        point["benches"][name] = run_bench(path)

    with open(args.out, "w") as f:
        json.dump(point, f, indent=2, sort_keys=True)
        f.write("\n")
    print("wrote %s" % args.out)
    prev_path = previous_point(args.out)
    if prev_path is None:
        print("no earlier BENCH_*.json next to it: nothing to compare")
        return 0
    with open(prev_path) as f:
        print_diff(prev_path, json.load(f), point)
    return 0


if __name__ == "__main__":
    sys.exit(main())
