#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <box-make|chirp-meta|chirp-bulk> \
        --seed <n> --seconds <n> --trace <0|1>

Run from the root of a source tree. Builds the `perfbench` package
(release, offline) into $CARGO_TARGET_DIR, or `.bench_build` when that
is unset, then runs it with the same arguments. Cargo's output goes to
standard error, so the benchmark's JSON result stays the last line of
standard output. Exits with the benchmark's exit code, or nonzero
without a result when the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode if build.returncode > 0 else 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary, *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
