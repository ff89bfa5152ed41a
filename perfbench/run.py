#!/usr/bin/env python3
"""Builds perfbench from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The perfbench program is built with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); an up-to-date
build is a no-op.  Span files of traced runs go to <build>/traces.  The last
line of stdout is the program's JSON result; build output goes to stderr.
Exits non-zero, printing no result, when the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build(out):
    """Configures and builds the program; returns its path or None."""
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", "perfbench", "-j", "4"]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            return None
    return os.path.join(out, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["http_keepalive", "http_connect", "fn_b64"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    traces = os.path.join(out, "traces")
    os.makedirs(traces, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", traces]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if lines:
        print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
