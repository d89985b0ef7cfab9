#!/usr/bin/env python3
"""Build the serving benchmark from source and run it.

    python3 perfbench/run.py --workload distance-uniform --seed 1 --seconds 10 --trace 0

Run from the repository root. The Go build cache, the binary and every
file a run writes stay under .bench_build/ there. Arguments are passed
to the benchmark; see perfbench/README.md.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    build = os.path.join(ROOT, ".bench_build")
    home = os.path.join(build, "home")
    env = dict(
        os.environ,
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        GOTMPDIR=os.path.join(build, "tmp"),
        TMPDIR=os.path.join(build, "tmp"),
        HOME=home,
        XDG_CONFIG_HOME=os.path.join(home, ".config"),
        XDG_CACHE_HOME=os.path.join(home, ".cache"),
        GOENV="off",
        GOTOOLCHAIN="local",
        GOFLAGS="-mod=readonly",
        CGO_ENABLED="0",
    )
    for d in (env["GOTMPDIR"], home):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    # Build output goes to stderr: stdout's last line is the result.
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
