#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark of the R^exp index family.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload paper-network --seed 1 \
        --seconds 10 --trace 0

The first run configures and builds, under .bench_build/ at the checkout's
root: the rexp library through the repository's own CMake build (Release,
library target only), then the benchmark program in this directory against
it. Later runs only let CMake confirm that both are up to date. Build
output goes to standard error; standard output is the program's, whose
last line is the run's JSON result. Every argument is passed to the program
(see README.md).
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
LIB_BUILD = os.path.join(BUILD, "rexp")
BENCH_BUILD = os.path.join(BUILD, "perfbench")
JOBS = str(max(1, min(4, os.cpu_count() or 1)))


def step(cmd):
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: failed: %s\n" % " ".join(cmd))
        sys.exit(result.returncode or 1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        sys.stderr.write("perfbench: no CMakeLists.txt at %s\n" % ROOT)
        sys.exit(1)
    if not os.path.isfile(os.path.join(LIB_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", ROOT, "-B", LIB_BUILD,
              "-DCMAKE_BUILD_TYPE=Release"])
    step(["cmake", "--build", LIB_BUILD, "--target", "rexp", "-j", JOBS])
    if not os.path.isfile(os.path.join(BENCH_BUILD, "CMakeCache.txt")):
        step(["cmake", "-S", HERE, "-B", BENCH_BUILD,
              "-DCMAKE_BUILD_TYPE=Release",
              "-DREXP_SOURCE_DIR=" + ROOT,
              "-DREXP_LIBRARY=" + os.path.join(LIB_BUILD, "src",
                                               "librexp.a")])
    step(["cmake", "--build", BENCH_BUILD, "-j", JOBS])
    return os.path.join(BENCH_BUILD, "rexp_perfbench")


def main():
    binary = build()
    sys.stdout.flush()
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
