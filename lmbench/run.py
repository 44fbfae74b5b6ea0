#!/usr/bin/env python3
"""Build the lmbench benchmark binary from source and run one workload.

Usage (from the repository root):
  python3 lmbench/run.py --workload serve_2d --seed 1 --seconds 15 --trace 0

Every argument is passed through to the binary (see README.md). The
build goes to .bench_build/lmbench and the binary's outputs (trace
files, the fleet's temporary state) to .bench_build/out, both under the
repository root. Build output goes to stderr; the binary's last line of
standard output is the JSON result. Exits non-zero, printing no result,
when the build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "lmbench")
OUT = os.path.join(ROOT, ".bench_build", "out")


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD, "-j", jobs]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    if not build():
        print("lmbench: build failed", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    cmd = [os.path.join(BUILD, "lmbench"), *sys.argv[1:], "--out", OUT]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
