#!/usr/bin/env python3
"""Build the perfbench binary from source and run it.

Usage (from the repository root):

    python3 perfbench/run.py --workload hybrid-point --seed 1 --seconds 10 --trace 0

Every Go cache and build output stays under .bench_build/ in the repository
root, so the benchmark reads and writes nothing outside the checkout. All
arguments are passed to the binary unchanged; see perfbench/main.go.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "mod"),
        "GOTMPDIR": "",
        "GOENV": "off",
        "GOTELEMETRY": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "-mod=mod",
    })
    return env


def revision():
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    os.makedirs(BUILD, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=go_env())
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([binary, "--rev", revision(), "--out", BUILD] + sys.argv[1:], cwd=ROOT)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
