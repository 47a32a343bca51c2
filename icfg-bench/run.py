#!/usr/bin/env python3
"""icfg-bench entry point: build the benchmark from source, run one workload.

    python3 icfg-bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of the source tree. It builds
icfg-bench/src/main.exe with dune (build output goes to stderr; dune's
shared cache is disabled so nothing is written outside the tree), then
runs it with the same arguments and exits with its exit code. The last
line of standard output is the result JSON object.
"""

import os
import subprocess
import sys

TARGET = "icfg-bench/src/main.exe"


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("icfg-bench: run from the root of the icfgpatch source tree",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./" + TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        return build.returncode
    exe = os.path.join("_build", "default", TARGET)
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
