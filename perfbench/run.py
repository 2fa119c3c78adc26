#!/usr/bin/env python3
"""Entry point of the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload registry --seed 1 --seconds 25 --trace 0

Builds perfbench/ (and the library sources it compiles from src/) into
.bench_build/perfbench with CMake, then runs the benchmark binary with the
same arguments. The binary prints the result as the last line of stdout.
Build output goes to stderr so stdout carries only the benchmark's lines.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    subprocess.run(["cmake", "-S", SRC, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   check=True, stdout=sys.stderr)
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    binary = os.path.join(BUILD, "perfbench")
    return subprocess.run([binary] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
