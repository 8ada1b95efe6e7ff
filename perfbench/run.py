#!/usr/bin/env python3
"""DataCell end-to-end benchmark: build, run one workload, print the result.

    python3 perfbench/run.py --workload shared_windows --seed 1 \
        --seconds 10 --trace 0

Builds perfbench/ (the engine library from src/ plus the benchmark binary
from perfbench/src/) into .bench_build/perfbench with CMake, runs it
for one workload and relays its output. The last stdout line is the JSON
result: {"correct", "attempted", "failed", "metrics"}. Workloads, metrics
and their rationale: perfbench/RATIONALE.md.

Exits non-zero without a result line when the sources or the toolchain
are missing or the build fails. A run that stalls past its deadline is
reported as a failed result (correct: false) rather than hanging.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_DIR = os.path.join(BUILD_ROOT, "build")
BINARY = os.path.join(BUILD_DIR, "datacell_bench")
WORKLOADS = ("ingest_durable", "shared_windows", "open_loop_mixed")
# The binary's own watchdog fires first; this is the backstop.
RUN_DEADLINE_S = 150
KILL_AFTER_S = 165


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "engine.h")):
        fail(f"DataCell sources not found under {ROOT}/src")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR,
                   "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            run_build_step(cmd)
        jobs = str(min(4, os.cpu_count() or 1))
        run_build_step(["cmake", "--build", BUILD_DIR, "-j", jobs])


def run_build_step(cmd):
    res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if res.returncode != 0:
        fail(f"build step failed: {' '.join(cmd)}", 3)


def failed_line(reason):
    print(f"perfbench: {reason}", file=sys.stderr)
    return json.dumps({"correct": False, "attempted": 1, "failed": 1,
                       "metrics": {}})


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="input-size multiplier (tests use a small one)")
    args = ap.parse_args()

    build()
    work_dir = os.path.join(BUILD_ROOT, f"run-{os.getpid()}")
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scale", str(args.scale), "--work-dir", work_dir,
           "--deadline", str(RUN_DEADLINE_S)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=KILL_AFTER_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        out += "\n" + failed_line("datacell_bench did not exit; killed") + "\n"
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [ln for ln in out.splitlines() if ln.strip()]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    if result is None:
        for ln in lines:
            print(ln)
        fail(f"datacell_bench exited {proc.returncode} without a result "
             "line", 4)
    for ln in lines[:-1]:
        print(ln)
    print(json.dumps(result))
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
