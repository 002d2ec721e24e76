#!/usr/bin/env python3
"""Build and run the newmad wall-clock benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload pingpong --seed 1 --seconds 25 --trace 0

The Go program is built from source into .bench_build/, with the build
cache and the go command's other files, so nothing is written outside
the checkout. It then runs with the same arguments. The last line of its
standard output is the result object; see perfbench/README.md.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build = os.path.join(root, ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep every file the go command writes (cache, module cache, work
    # directory, its config and telemetry) inside the checkout.
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=tmp,
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOPROXY="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env)
    if built.returncode != 0:
        sys.exit("perfbench: build failed")
    ran = subprocess.run([binary] + sys.argv[1:], cwd=root)
    sys.exit(ran.returncode)


if __name__ == "__main__":
    main()
