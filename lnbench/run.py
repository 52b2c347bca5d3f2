#!/usr/bin/env python3
"""Build and run lnbench, LiveNet's end-to-end benchmark.

Run from the repository root:

    python3 lnbench/run.py --workload relay-fanout --seed 1 --seconds 30 --trace 0

The Go program is built from source into .bench_build/ (its build cache
included) and run with the same arguments. Its last line of standard
output is the JSON result; span logs and full results go to .bench_out/.
"""
import os
import subprocess
import sys

# The program's own watchdog ends a wedged run at 170 s; this is the
# backstop in case it cannot.
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 800


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    # The benchmark measures the repository's packages; without them
    # there is nothing to build or run.
    if not (os.path.isfile(os.path.join(root, "go.mod")) and os.path.isdir(os.path.join(root, "internal"))):
        print("lnbench: run from the repository root: go.mod and internal/ not found", file=sys.stderr)
        return 2
    build = os.path.join(root, ".bench_build")
    # Keep every file the toolchain writes inside the checkout.
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        GOFLAGS="-mod=mod",
    )
    binary = os.path.join(build, "lnbench")
    try:
        b = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lnbench: build timed out", file=sys.stderr)
        return 1
    if b.returncode != 0:
        return b.returncode
    proc = subprocess.Popen([binary] + sys.argv[1:] + ["--out", os.path.join(root, ".bench_out")], cwd=root)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("lnbench: run timed out", file=sys.stderr)
        return 124


if __name__ == "__main__":
    sys.exit(main())
