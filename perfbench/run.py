#!/usr/bin/env python3
"""Builds the daemon and the benchmark from source, then runs the benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cold-analyze --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Build artifacts go to $CARGO_TARGET_DIR (default: .bench_build). Cargo's
own output goes to stderr, so the last line of stdout is the result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()


def main():
    target = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "ser-cli"],
        ["cargo", "build", "--release", "--offline", "-q",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "perfbench"), "--daemon", os.path.join(release, "ser-cli")]
    return subprocess.run(cmd + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
