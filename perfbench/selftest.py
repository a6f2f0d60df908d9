#!/usr/bin/env python3
"""The benchmark's own tests. Run from the repository root:

  python3 perfbench/selftest.py

1. Determinism: grow_large and fanout_8v run twice on one seed; their
   virtual-time numbers (ops per virtual second, virtual latencies, the
   durable wait and the recovery time) must be bit-identical.
2. Shape, on a second seed: grow_large's name table outgrows the page
   cache, fanout_8v performs cross-volume renames, and meta_hot's name
   table fits in the cache.
3. Every run is correct, exits 0, and prints exactly the metrics that
   BENCHMARK.json names for its mode (end-to-end or per-layer).

Exits 0 when every test passes.
"""

import json
import os
import subprocess
import sys

RUN = [sys.executable, os.path.join(os.path.dirname(__file__), "run.py")]
SEED_A = 11
SEED_B = 12
VIRTUAL_KEYS = ("ops", "op_vsec", "vlat_p50_us", "vlat_p99_us",
                "durable_p90_us", "recovery_p50_us")

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def declared_metrics():
    try:
        with open("BENCHMARK.json") as file:
            spec = json.load(file)
    except OSError:
        return None
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]})


def run(workload, seed, trace, seconds=1):
    """Runs one workload; returns (result line, detail report)."""
    done = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds",
               str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    check(done.returncode == 0 and result.get("correct") is True,
          f"{workload} seed {seed} trace {trace}: exit {done.returncode}, "
          f"correct {result.get('correct')}, failed {result.get('failed')}")
    detail_path = os.path.join(
        ".bench_out", f"{workload}-seed{seed}-trace{trace}.json")
    with open(detail_path) as file:
        detail = json.load(file)
    declared = declared_metrics()
    if declared is not None:
        check(set(result.get("metrics", {})) == declared[trace],
              f"{workload} trace {trace}: prints the metrics BENCHMARK.json "
              "declares")
    return result, detail


def main():
    # 1. Determinism of the single-client workloads' virtual time.
    for workload in ("grow_large", "fanout_8v"):
        _, first = run(workload, SEED_A, 0)
        _, second = run(workload, SEED_A, 0)
        for key in VIRTUAL_KEYS:
            check(first["virtual"][key] == second["virtual"][key],
                  f"{workload} seed {SEED_A}: virtual {key} repeats exactly "
                  f"({first['virtual'][key]} vs {second['virtual'][key]})")

    # 2. Shape on another seed.
    _, grow = run("grow_large", SEED_B, 0)
    check(grow["shape"]["nt_pages_used"] > grow["shape"]["cache_frames"],
          "grow_large: name table ({:.0f} pages) outgrows the cache ({:.0f} "
          "frames)".format(grow["shape"]["nt_pages_used"],
                           grow["shape"]["cache_frames"]))
    _, fanout = run("fanout_8v", SEED_B, 0)
    check(fanout["shape"]["cross_renames"] > 0,
          "fanout_8v: {:.0f} cross-volume renames".format(
              fanout["shape"]["cross_renames"]))
    _, meta = run("meta_hot", SEED_B, 0)
    check(meta["shape"]["nt_pages_used"] < meta["shape"]["cache_frames"],
          "meta_hot: name table ({:.0f} pages) fits in the cache ({:.0f} "
          "frames)".format(meta["shape"]["nt_pages_used"],
                           meta["shape"]["cache_frames"]))

    # 3. The traced mode of every workload.
    for workload in ("meta_hot", "grow_large", "fanout_8v"):
        result, _ = run(workload, SEED_B, 1)
        spans = result.get("metrics", {}).get("trace.spans", {}).get("value", 0)
        check(spans > 0, f"{workload}: traced run recorded {spans:.0f} spans")

    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
