#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload of BENCHMARK.json repeatedly at its run length, one
seed per round, alternating the workload order from round to round, and
prints for each end-to-end metric its median, quartiles and spread
(interquartile range as a share of the median) beside the bound
BENCHMARK.json gives it, plus the share of failed operations and the
host's calibration probe (host.probe_ms) of every run, so that a slow set
of runs can be told apart from a slow program. With --traced it also makes
one traced run per round and prints the tracing overhead (traced minus
untraced step_ms.min). Exits non-zero when a spread is over its bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 2 --traced
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
import time


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: outputs incorrect")
    probe = re.search(r"^host: .*probe_ms=([0-9.]+)", proc.stderr, re.M)
    return result, wall, float(probe.group(1)) if probe else float("nan")


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="also make one traced run per round")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    command = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values = {w: {} for w in workloads}
    probes = {w: [] for w in workloads}
    traced = {w: [] for w in workloads}
    failed_share = {w: set() for w in workloads}
    for r in range(args.runs):
        seed = args.first_seed + r
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for w in order:
            result, wall, probe = run_once(command, w, seed, seconds, 0)
            failed_share[w].add(result["failed"] / result["attempted"])
            probes[w].append(probe)
            for name, m in result["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            line = " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"round {r} seed {seed} {w} ({wall:.0f} s): {line} "
                  f"host.probe_ms={probe:.4g}", flush=True)
            if args.traced:
                result, _, _ = run_once(command, w, seed, seconds, 1)
                traced[w].append(result["metrics"]["trace.step_ms.min"]["value"])

    print()
    print(f"{'workload':<14} {'metric':<14} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>7} {'bound':>6}")
    steady = True
    for w in workloads:
        for name, vals in list(values[w].items()) + [("host.probe_ms", probes[w])]:
            if len(vals) < 2:
                continue
            med, q1, q3, s = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s > bound:
                flag = "  OVER BOUND"
                steady = False
            elif bound is not None and s > bound / 3:
                flag = "  over a third of bound"
            print(f"{w:<14} {name:<14} {med:>11.5g} {q1:>11.5g} {q3:>11.5g} {s:>7.3f} {bound!s:>6}{flag}")
        print(f"{w:<14} failed share: {sorted(failed_share[w])}")
        if traced[w]:
            overhead = statistics.median(traced[w]) - statistics.median(values[w]["step_ms.min"])
            print(f"{w:<14} tracing overhead (traced - untraced step_ms.min medians): {overhead:.4g} ms")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
