#!/usr/bin/env python3
"""Gates perfbench's exact metrics against tools/modeled_expected.json.

    python3 tools/check_modeled.py > measured.json

Runs each perfbench workload (perfbench/run.py, which builds the program
first) for one second on a fixed seed, once untraced and once traced, and
compares every metric the expected file names with the value the two runs
report. These metrics are modeled, so they repeat exactly on any host: the
untraced modeled_cycles_per_op, and the traced exits, instructions, restored
bytes and host cycles per op. The per-op traced metrics come from perfbench's
staged path, which snapshots in the CRT; the HTTP workloads'
vnet.server.exits_per_req comes from the listener's own connections, so it
also gates the keep-alive guest's snapshot point inside its first receive
(3 exits per request at one request per connection, 129/64 at 64). Wall
metrics are printed; of them only fn_b64's untraced peak_rss_mb is gated, at
10 MB: guest memory must stay resident only where touched (the HTTP
workloads' RSS is printed, not gated).

Fails (exit 1) if a run is not correct, if any op failed, if any value
differs from the file, printing each moved value as old -> new (and a failed
run's own output), or if fn_b64's peak RSS exceeds its limit. Progress and
differences go to stderr; stdout gets the measured values in the expected
file's format, so a change that means to move a number regenerates the file
from it.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "modeled_expected.json")
RUN = os.path.join(HERE, "..", "perfbench", "run.py")
SEED = 1
WALL = ["setup_s", "peak_rss_mb"]
# Untraced peak_rss_mb ceilings (MB). fn_b64 prewarms 16 shells of 2 MB guest
# memory; a host that made them resident on creation would read ~38 MB.
RSS_LIMIT_MB = {"fn_b64": 10.0}


def run(workload, trace):
    """Runs one workload; returns its JSON result and the run's stderr."""
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return (json.loads(lines[-1]) if lines else None), proc.stderr


def main():
    with open(EXPECTED) as f:
        expected = json.load(f)
    measured = {}
    ok = True
    for workload, want in expected.items():
        metrics = {}
        for trace in (0, 1):
            result, log = run(workload, trace)
            if result is None:
                print(f"{log}[modeled] {workload} trace={trace}: no result", file=sys.stderr)
                return 1
            if not result["correct"] or result["failed"] > 0:
                print(f"{log}[modeled] {workload} trace={trace}: correct={result['correct']} "
                      f"failed={result['failed']} of {result['attempted']}", file=sys.stderr)
                ok = False
            metrics.update({k: m["value"] for k, m in result["metrics"].items()})
            if trace == 0:
                wall = ", ".join(f"{k} {metrics[k]:.4g}" for k in WALL)
                limit = RSS_LIMIT_MB.get(workload)
                gate = "not gated" if limit is None else f"peak_rss_mb gated at {limit:g} MB"
                print(f"[modeled] {workload}: {wall} ({gate})", file=sys.stderr)
                if limit is not None and metrics["peak_rss_mb"] > limit:
                    print(f"[modeled] {workload} peak_rss_mb {metrics['peak_rss_mb']:.4g} MB "
                          f"exceeds {limit:g} MB", file=sys.stderr)
                    ok = False
        measured[workload] = {name: metrics.get(name) for name in want}
        for name, old in want.items():
            new = measured[workload][name]
            if new != old:
                print(f"[modeled] {workload} {name}: {old} -> {new}", file=sys.stderr)
                ok = False
    json.dump(measured, sys.stdout, indent=2)
    print()
    print(f"[modeled] {'all values match' if ok else 'FAILED'} ({EXPECTED})", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
