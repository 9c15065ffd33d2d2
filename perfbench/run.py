#!/usr/bin/env python3
"""Builds the CEEMS benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_pull --seed 1 --seconds 40 --trace 0

The benchmark binary is built with cargo into $CARGO_TARGET_DIR (default
`.bench_build` in the checkout); scratch state goes to `.bench_run`. The
last line of standard output is the JSON result.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("fleet_pull", "fleet_push_alerts", "dashboards")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    root = os.getcwd()
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(HERE, "Cargo.toml")
    try:
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
            env=env,
            stdout=sys.stderr,
            timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build: {e}")
    if build.returncode != 0:
        fail("build failed (the benchmark builds the repository's crates from ..)")
    # Flush the build's dirty pages now, not as write-back under the WAL of
    # the first measured run.
    os.sync()

    exe = os.path.join(target, "release", "ceems-perfbench")
    cmd = [
        exe,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--work-dir", os.path.join(root, ".bench_run"),
    ]
    try:
        # subprocess.run kills and reaps the child if it overruns.
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"run: {e}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"benchmark exited with {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"bad result line: {e}")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"bad result keys: {sorted(result)}")
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
