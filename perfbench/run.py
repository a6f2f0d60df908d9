#!/usr/bin/env python3
"""Builds the FSD end-to-end benchmark from source and runs one workload.

Run from the repository root:

  python3 perfbench/run.py --workload meta_hot --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (and the FSD stack it
compiles from src/) into .bench_build/perfbench; later runs rebuild only
what changed. Build output goes to stderr. The benchmark's own stdout is
passed through: a report, then as the last line one JSON object with the
keys correct, attempted, failed and metrics. Detail reports and traced
spans are written under .bench_out/.

`--workload all` runs meta_hot, grow_large and fanout_8v one after another
with the same arguments and prints each one's report.

The exit code is the benchmark's: 0 when every op and correctness check
passed. A failed build exits 1 without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
WORKLOADS = ("meta_hot", "grow_large", "fanout_8v")


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", "4"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            print(f"perfbench: build step failed: {error}", file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: build step {' '.join(step)} exited "
                  f"{done.returncode}", file=sys.stderr)
            return False
    return os.path.exists(BINARY)


def run(argv):
    try:
        done = subprocess.run([BINARY] + argv, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    return done.returncode


def main(argv):
    if not build():
        return 1
    if "--workload" in argv and argv.index("--workload") + 1 < len(argv):
        at = argv.index("--workload") + 1
        if argv[at] == "all":
            codes = [run(argv[:at] + [name] + argv[at + 1:])
                     for name in WORKLOADS]
            return next((code for code in codes if code != 0), 0)
    return run(argv)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
