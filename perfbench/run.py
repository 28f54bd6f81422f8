#!/usr/bin/env python3
"""Builds the benchmark and the system it measures from source, then runs it.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <dense-a|sparse-default> \\
        --seed <n> --seconds <n> --trace <0|1>

The build goes to $CARGO_TARGET_DIR (default .bench_build); the oracle
digest cache and span files go under it too. Build output goes to standard
error, so the last line of standard output is the harness's JSON result.
Exits non-zero, without a result, when the build fails (for example in a
directory that holds the benchmark but not the system's sources), and with
the harness's own code otherwise.
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    jobs = str(min(4, os.cpu_count() or 1))
    # Configured on every run: cheap on a configured tree, and cmake
    # refuses a build directory that another source tree configured, so
    # a shared $CARGO_TARGET_DIR never measures someone else's sources.
    steps = [["cmake", "-S", here, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build, "--target", "oij_perfbench",
              "-j", jobs]]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return 1
    harness = [
        os.path.join(build, "oij_perfbench"),
        "--cache-dir", os.path.join(build, "cache"),
        "--out-dir", os.path.join(build, "out"),
    ] + sys.argv[1:]
    sys.stdout.flush()
    return subprocess.run(harness).returncode


if __name__ == "__main__":
    sys.exit(main())
