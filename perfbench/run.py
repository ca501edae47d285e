#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]

The benchmark is a cargo package of its own (perfbench/Cargo.toml) that
depends on the repository's crates by path. It is built in release mode
into $CARGO_TARGET_DIR (default: .bench_build at the repository root) and
then run. The last line of standard output is the result object; see
perfbench/README.md. With --trace 1 the recorded spans are also written to
<target dir>/perfbench-trace/<workload>-seed<n>.json.

Exits non-zero, printing no result, when the build or the run fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave room for process start and teardown.
RUN_TIMEOUT_S = 170


def build(target_dir):
    """Builds the benchmark binary; returns its path or exits non-zero."""
    manifest = os.path.join(HERE, "Cargo.toml")
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        sys.exit(f"perfbench: build failed with exit code {result.returncode}")
    return os.path.join(target_dir, "release", "symcosim-perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced inputs, for tests")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        sys.exit("perfbench: --seed and --seconds must be non-negative")

    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    binary = build(target_dir)
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace == "1":
        trace_dir = os.path.join(target_dir, "perfbench-trace")
        os.makedirs(trace_dir, exist_ok=True)
        command += ["--trace-out", os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json")]

    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        output, _ = child.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        sys.exit(f"perfbench: {args.workload} did not finish within {RUN_TIMEOUT_S} s")
    if child.returncode != 0:
        sys.stderr.write(output)
        sys.exit(f"perfbench: {args.workload} exited with code {child.returncode}")
    sys.stdout.write(output)


if __name__ == "__main__":
    main()
