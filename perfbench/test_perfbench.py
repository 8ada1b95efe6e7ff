#!/usr/bin/env python3
"""The benchmark's own test: tiny runs of every workload.

    python3 perfbench/test_perfbench.py

Checks, at a small input size:
  * BENCHMARK.json is well formed;
  * each workload prints a result line with exactly the keys correct,
    attempted, failed and metrics, correct and with no failures, and
    every end-to-end (--trace 0) or per-layer (--trace 1) metric with
    its unit;
  * the traced run puts the largest self time where the workload is
    meant to load the engine (storage for ingest_durable, factory and
    exec for shared_windows);
  * the synchronous workloads repeat their exact counts and digest for
    one seed, and another seed changes the digest;
  * a run past its deadline ends as a failed result instead of hanging;
  * without the engine sources the command fails fast with no result.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]
SCALE = "0.05"
FAILURES = []


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def run(workload, seed, trace, seconds="1"):
    out = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               seconds, "--trace", str(trace), "--scale", SCALE],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=900)
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    extra = {}
    for ln in lines:
        if ln.startswith("COUNTS "):
            extra["counts"] = json.loads(ln[len("COUNTS "):])
        if ln.startswith("DIGEST "):
            extra["digest"] = ln.split()[1]
    return out.returncode, result, extra


def check_result(bench, workload, trace, code, result):
    tag = f"{workload} trace={trace}"
    check(code == 0, f"{tag}: exit code 0")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(result.get("correct") is True, f"{tag}: correct")
    check(result.get("failed") == 0, f"{tag}: no failed operations")
    check(isinstance(result.get("attempted"), int)
          and result["attempted"] >= 1, f"{tag}: attempted >= 1")
    wanted = bench["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    check(set(metrics) == {m["name"] for m in wanted},
          f"{tag}: metric names match BENCHMARK.json")
    for m in wanted:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        ok = (got.get("unit") == m["unit"] and isinstance(value, (int, float))
              and math.isfinite(value))
        if not trace:
            ok = ok and value > 0
        check(ok, f"{tag}: {m['name']} is a number in {m['unit']}"
              + ("" if trace else " and not 0"))


def check_benchmark_json(bench):
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    check(len(names) == len(set(names)), "metric names are unique")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in bench["end_to_end"]),
          "setup_s is an end-to-end metric")
    check(all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"]),
          "bounds within (0, 0.25]")
    check(max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"),
        "setup_s has the largest bound")


def check_self_times(workload, metrics):
    def self_us(layer):
        return metrics[f"self.{layer}_us_per_krow"]["value"]
    layers = ["sql_plan", "core_basket", "storage_wal", "storage_snapshot",
              "core_scheduler", "core_factory_exec", "core_emitter",
              "oneshot_query"]
    storage = self_us("storage_wal") + self_us("storage_snapshot")
    factory = self_us("core_factory_exec")
    others = {l: self_us(l) for l in layers
              if l not in ("storage_wal", "storage_snapshot")}
    if workload == "ingest_durable":
        check(storage > max(others.values()),
              f"{workload}: storage self time is the largest share")
    if workload == "shared_windows":
        rest = {l: v for l, v in others.items() if l != "core_factory_exec"}
        check(factory > max(max(rest.values()), storage),
              f"{workload}: factory+exec self time is the largest share")


def check_deadline():
    binary = os.path.join(ROOT, ".bench_build", "perfbench", "build",
                          "datacell_bench")
    work = os.path.join(ROOT, ".bench_build", "perfbench", "deadline-test")
    t0 = time.monotonic()
    out = subprocess.run(
        [binary, "--workload", "open_loop_mixed", "--seed", "1", "--seconds",
         "30", "--trace", "0", "--work-dir", work, "--deadline", "2"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=60)
    elapsed = time.monotonic() - t0
    shutil.rmtree(work, ignore_errors=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    check(elapsed < 20 and result["correct"] is False and result["failed"] > 0,
          "a run past its deadline ends as a failed result "
          f"({elapsed:.1f} s)")


def check_without_sources():
    bare = os.path.join(ROOT, ".bench_build", "perfbench", "bare-test")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    t0 = time.monotonic()
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                          "shared_windows", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, text=True, timeout=180)
    elapsed = time.monotonic() - t0
    shutil.rmtree(bare, ignore_errors=True)
    check(out.returncode != 0 and '"correct"' not in out.stdout
          and elapsed < 60,
          "without sources: non-zero exit, no result line")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    check_benchmark_json(bench)
    # shared_windows is not in BENCHMARK.json (see RATIONALE.md) but the
    # command still runs it.
    for w in [x["name"] for x in bench["workloads"]] + ["shared_windows"]:
        code, result, extra = run(w, 7, 0)
        check_result(bench, w, 0, code, result)
        code, traced, _ = run(w, 7, 1, seconds="2")
        check_result(bench, w, 1, code, traced)
        if traced.get("metrics"):
            check_self_times(w, traced["metrics"])
        if w == "open_loop_mixed":
            continue  # threaded: only the emissions repeat (checked inside)
        _, _, again = run(w, 7, 0)
        check(extra.get("counts") == again.get("counts")
              and extra.get("digest") == again.get("digest"),
              f"{w}: counts and digest repeat for one seed")
        _, _, other = run(w, 8, 0)
        check(extra.get("digest") != other.get("digest"),
              f"{w}: another seed changes the digest")
    check_deadline()
    check_without_sources()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
