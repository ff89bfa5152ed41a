#!/usr/bin/env python3
"""Steadiness check: repeated perfbench runs, each with its own seed.

    python3 perfbench/steady.py [--runs 10] [--seconds 10] [--workloads a,b]

Run from the repository root.  Runs of http_keepalive and fn_b64 are
interleaved round by round, so a slow spell of the host lands on every
workload instead of on one; the http_connect runs come as one back-to-back
block in the middle, and its first and second halves are compared, so a
build-up of sockets in TIME_WAIT would show as a drift.

For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the interquartile spread as a share
of the median, next to the metric's bound in BENCHMARK.json when that file is
present; the report-only metrics of the human report (wall throughput,
latency percentiles, CPU time per op) follow, without a bound.  It confirms
that modeled_cycles_per_op repeats exactly on every workload, and exits
non-zero if any run failed, was incorrect, or any spread other than
setup_s's exceeds its bound.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["http_keepalive", "http_connect", "fn_b64"]
EXACT = "modeled_cycles_per_op"
# A report-only line of perfbench's human report (stderr).
REPORT_LINE = re.compile(r"^\s+(\S+)\s+(-?[0-9.]+)\s+\S+\s+\(report only\)$")


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    ok = proc.returncode == 0 and result is not None and result["correct"]
    report = {}
    for line in proc.stderr.splitlines():
        m = REPORT_LINE.match(line)
        if m:
            report[m.group(1)] = float(m.group(2))
    return ok, result, report


def schedule(workloads, runs):
    """(workload, run index) pairs: interleaved rounds, http_connect in one block."""
    rest = [w for w in workloads if w != "http_connect"]
    rounds = [[(w, r) for w in rest] for r in range(runs)]
    block = [("http_connect", r) for r in range(runs)] if "http_connect" in workloads else []
    half = len(rounds) // 2
    flat = [p for rnd in rounds[:half] for p in rnd] + block
    return flat + [p for rnd in rounds[half:] for p in rnd]


def load_bounds():
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["bound"] for m in spec.get("end_to_end", [])}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--seed-base", type=int, default=1000)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    args = parser.parse_args()
    workloads = [w for w in args.workloads.split(",") if w]
    bounds = load_bounds()

    values = {w: {} for w in workloads}
    report_values = {w: {} for w in workloads}
    failures = 0
    for workload, r in schedule(workloads, args.runs):
        seed = args.seed_base + r
        ok, result, report = run_once(workload, seed, args.seconds)
        if not ok:
            failures += 1
            print(f"{workload} seed={seed}: FAILED", flush=True)
            continue
        for name, m in result["metrics"].items():
            values[workload].setdefault(name, []).append(m["value"])
        for name, v in report.items():
            report_values[workload].setdefault(name, []).append(v)
        brief = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"{workload} seed={seed}: {brief}", flush=True)

    bad = failures
    print(f"\n{'workload':<15} {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload in workloads:
        rows = [(name, vals, bounds.get(name, "-")) for name, vals in values[workload].items()]
        rows += [(name, vals, "report") for name, vals in report_values[workload].items()]
        for name, vals, bound in rows:
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            flag = ""
            if isinstance(bound, float) and name != "setup_s" and spread > bound:
                flag = " OVER"
                bad += 1
            elif isinstance(bound, float) and spread > bound / 3:
                flag = " (>1/3 bound)"
            print(f"{workload:<15} {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                  f"{spread:>8.4f} {bound:>6}{flag}")
        exact = values[workload].get(EXACT, [])
        if exact and len(set(exact)) != 1:
            print(f"{workload}: {EXACT} VARIES: {sorted(set(exact))}")
            bad += 1
        elif exact:
            print(f"{workload}: {EXACT} repeats exactly ({exact[0]:.6g}) over {len(exact)} runs")

    rps = report_values.get("http_connect", {}).get("throughput_rps", [])
    if len(rps) >= 4:
        half = len(rps) // 2
        first, second = statistics.median(rps[:half]), statistics.median(rps[half:])
        print(f"http_connect back-to-back drift: first half {first:.6g} ops/s, "
              f"second half {second:.6g} ops/s ({(second - first) / first:+.3f})")
    print(f"\nfailed runs: {failures}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
