#!/usr/bin/env python3
"""Build and run the Pitchfork benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build in the working directory),
then run with the given arguments. Build output goes to standard error,
so the last line of standard output is the benchmark's JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # The run manifest asks git for the commit; keep git from searching
    # above the working directory.
    env["GIT_CEILING_DIRECTORIES"] = os.path.dirname(os.getcwd())
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")
    return subprocess.run([exe] + sys.argv[1:], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
