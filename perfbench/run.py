#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The build goes to .bench_build (dune's
output is sent to stderr); the benchmark's own output, whose last line is
the JSON result, goes to stdout.  Exits non-zero, printing no result, if
the build or the run fails.
"""

import os
import shutil
import subprocess
import sys

BUILD_DIR = ".bench_build"
TARGET = "./perfbench/bench.exe"


def find_dune():
    dune = shutil.which("dune")
    if dune:
        return dune
    opam = shutil.which("opam")
    if opam:
        out = subprocess.run([opam, "var", "bin"], capture_output=True, text=True)
        candidate = os.path.join(out.stdout.strip(), "dune")
        if out.returncode == 0 and os.access(candidate, os.X_OK):
            return candidate
    sys.exit("run.py: dune not found on PATH")


def main():
    if not os.path.isfile("dune-project"):
        sys.exit("run.py: run from the repository root (no dune-project here)")
    build = subprocess.run(
        [find_dune(), "build", "--root", ".", "--build-dir", BUILD_DIR, TARGET],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        sys.exit("run.py: build failed")
    exe = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
    sys.exit(subprocess.run([exe] + sys.argv[1:]).returncode)


if __name__ == "__main__":
    main()
