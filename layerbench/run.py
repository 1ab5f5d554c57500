#!/usr/bin/env python3
"""Builds layerbench from this checkout's sources and runs one workload.

    python3 layerbench/run.py --workload vlm_decode --seed 1 --seconds 4 --trace 0
    python3 layerbench/run.py --selftest

The build (CMake, Release) lands in .bench_build/ at the repository root; the
first run compiles the library, later runs only relink what changed. Build
output goes to stderr, so the last line on stdout stays the benchmark's JSON
result. Exits non-zero without a result if the sources are missing or the
build fails.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")


def build(target):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        print("layerbench: no src/ next to layerbench/; nothing to build", file=sys.stderr)
        return False
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    result = subprocess.run(["cmake", "--build", BUILD, "--target", target, "-j", jobs],
                            stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def main():
    os.chdir(ROOT)
    if sys.argv[1:] == ["--selftest"]:
        if not build("layerbench_selftest"):
            return 2
        return subprocess.run([os.path.join(BUILD, "layerbench_selftest")]).returncode
    if not build("layerbench"):
        return 2
    sys.stdout.flush()
    return subprocess.run([os.path.join(BUILD, "layerbench")] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
