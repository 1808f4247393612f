#!/usr/bin/env python3
"""Build `kn` and `kn-perfbench` from source, then run `kn-perfbench`.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sched_cold --seed 1 --seconds 15 --trace 0

Builds go to $CARGO_TARGET_DIR (default `.bench_build`). The last stdout
line is the JSON result; build output goes to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["--manifest-path", "Cargo.toml", "-p", "kn-cli", "--bin", "kn"],
        ["--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", *extra]
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    bench = os.path.join(target, "release", "kn-perfbench")
    kn = os.path.join(target, "release", "kn")
    return subprocess.run([bench, "--kn", kn, *sys.argv[1:]], cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
