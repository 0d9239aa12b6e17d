#!/usr/bin/env python3
"""Build the advisor fleet and its benchmark driver from source, then run one benchmark.

Run from the repository root:

    python3 _fleetbench/run.py --workload place-mix --seed 1 --seconds 55 --trace 0

Builds smtservd, smtrouter and fleetbench into .bench_build/bin with the Go
toolchain, keeping the build cache and temporary files under .bench_build,
then runs fleetbench with the same arguments. fleetbench prints the result
as the last line of standard output; see main.go for the workloads.
"""
import os
import subprocess
import sys


def main():
    bench = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench)
    out = os.path.join(root, ".bench_build")
    bin_dir = os.path.join(out, "bin")
    if not os.path.isfile(os.path.join(root, "go.mod")) or not os.path.isdir(os.path.join(root, "cmd", "smtservd")):
        print("run.py: no advisor sources next to the benchmark (need go.mod and cmd/smtservd)", file=sys.stderr)
        return 2
    for d in ("gocache", "tmp", "gopath", "config", "cache"):
        os.makedirs(os.path.join(out, d), exist_ok=True)
    env = dict(
        os.environ,
        GOCACHE=os.path.join(out, "gocache"),
        GOTMPDIR=os.path.join(out, "tmp"),
        GOPATH=os.path.join(out, "gopath"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
        GOENV="off",
        CGO_ENABLED="0",
        XDG_CONFIG_HOME=os.path.join(out, "config"),
        XDG_CACHE_HOME=os.path.join(out, "cache"),
    )
    builds = [
        (root, ["go", "build", "-o", bin_dir + os.sep, "./cmd/smtservd", "./cmd/smtrouter"]),
        (bench, ["go", "build", "-o", os.path.join(bin_dir, "fleetbench"), "."]),
    ]
    for cwd, cmd in builds:
        done = subprocess.run(cmd, cwd=cwd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print("run.py: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    args = [os.path.join(bin_dir, "fleetbench"), "-bin", bin_dir, "-out", out] + sys.argv[1:]
    return subprocess.run(args, cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
