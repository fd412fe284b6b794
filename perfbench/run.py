#!/usr/bin/env python3
"""Builds the public-API join benchmark from source and runs one workload.

    python3 perfbench/run.py --workload band_saturate --seed 1 --seconds 10 --trace 0

The engine is compiled from the checkout's own sources into
.bench_build/perfbench (incremental after the first run). Build output goes
to stderr, so the last line on stdout is the benchmark's JSON result. Traced
runs (--trace 1) write their spans to .bench_build/traces. Exits non-zero
without a result when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
RUN_TIMEOUT_S = 170


def build():
    subprocess.run(
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs],
                   check=True, stdout=sys.stderr)


def main():
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"run.py: build failed: {err}", file=sys.stderr)
        return 1
    command = [os.path.join(BUILD, "perfbench"), *sys.argv[1:],
               "--trace-dir", TRACE_DIR]
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"run.py: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
