#!/usr/bin/env python3
"""Build and run the simulator benchmark (see simbench/README.md).

Usage, from the repository root:

    python3 simbench/run.py --workload paper-grid --seed 1 --seconds 15 --trace 0

The Go benchmark in this directory is built from source into .bench_build/
at the repository root, with the Go build cache kept there too, and then
replaces this process. It prints one JSON record as the last line of
standard output and exits 0 when every output check passed its run.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "simbench")


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("simbench: no go.mod at %s; run from a checkout of the simulator" % ROOT)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
        GOPROXY="off",
        GOTOOLCHAIN="local",
    )
    os.makedirs(BUILD, exist_ok=True)
    build = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env)
    if build.returncode != 0:
        sys.exit("simbench: build failed")
    os.chdir(ROOT)
    sys.stdout.flush()
    os.execve(BINARY, [BINARY] + sys.argv[1:], env)


if __name__ == "__main__":
    main()
