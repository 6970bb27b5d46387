#!/usr/bin/env python3
"""A/A noise study: runs BENCHMARK.json's command on the same code in two
sets of runs, each run with another seed, and prints NOISE.md's tables.

    python3 bench/noise.py [--runs 10] > bench/NOISE.md

Set A runs to completion before set B starts, so the minute-scale speed
drift of the box lands between the sets, where a regression gate would
see it. For every end-to-end metric and workload it reports each set's
median and quartiles (statistics.quantiles, n=4), the spread (q3-q1)/median
and how much worse set B's median is than set A's, beside the bound; then
the same spreads for the raw figures the program prints beside the
reference-speed ones. Exits 1 if anything is outside its bound.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys

root = pathlib.Path(__file__).resolve().parent.parent
bench = json.loads((root / "BENCHMARK.json").read_text())
RAW = ["qps_raw", "p50_ms_raw", "p95_ms_raw", "p99_ms_raw", "setup_s_raw"]  # p99 is printed, not gated


def run(workload, seed):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    lines = subprocess.run(cmd, cwd=root, check=True, capture_output=True,
                           text=True).stdout.strip().splitlines()
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed}: {res['failed']} of {res['attempted']} ops failed")
    printed = {}
    for line in lines[:-1]:  # `workload metric value unit`; setup_s_raw comes once per set-up
        f = line.split()
        if len(f) == 4 and f[0] == workload:
            printed.setdefault(f[1], []).append(float(f[2]))
    return {k: statistics.median(v) for k, v in printed.items()}


def summary(runs, name):
    vals = [r[name] for r in runs]
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return med, q1, q3, (q3 - q1) / med


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    n = ap.parse_args().runs
    sets = []
    for first in (1, 1 + n):
        sets.append({w["name"]: [run(w["name"], s) for s in range(first, first + n)]
                     for w in bench["workloads"]})
        print(f"set of {n} runs per workload done", file=sys.stderr)

    print(f"Two sets of {n} runs per workload on one commit, seeds 1-{n} (A) and {n + 1}-{2 * n} (B), "
          f"`--seconds {bench['run_seconds']} --trace 0`; set A finished before set B began.\n")
    print("| workload | metric | A median [q1, q3] | A spread | B median [q1, q3] | B spread "
          "| B worse than A | bound | within |")
    print("|---|---|---|---|---|---|---|---|---|")
    ok = True
    for w in bench["workloads"]:
        for m in bench["end_to_end"]:
            cells, meds, spreads = [], [], []
            for s in sets:
                med, q1, q3, spread = summary(s[w["name"]], m["name"])
                meds.append(med)
                spreads.append(spread)
                cells += [f"{med:.4g} [{q1:.4g}, {q3:.4g}]", f"{spread:.1%}"]
            worse = (meds[1] - meds[0]) / meds[0] * (1 if m["better"] == "lower" else -1)
            # setup_s is gated on its medians only, as the driver gates it.
            good = worse <= m["bound"] and (m["name"] == "setup_s" or max(spreads) <= m["bound"])
            ok &= good
            print(f"| {w['name']} | {m['name']} ({m['unit']}) | {' | '.join(cells)} "
                  f"| {worse:+.1%} | {m['bound']:.0%} | {'yes' if good else 'NO'} |")

    print("\nThe same runs before and after the reference-speed correction "
          "(spread of set A / set B, and |B median - A median| / A median):\n")
    print("| workload | metric | raw spreads | raw A-B | at reference speed: spreads | A-B |")
    print("|---|---|---|---|---|---|")
    for w in bench["workloads"]:
        for raw in RAW:
            cells = []
            for name in (raw, raw.removesuffix("_raw")):
                a, b = (summary(s[w["name"]], name) for s in sets)
                cells += [f"{a[3]:.1%} / {b[3]:.1%}", f"{abs(b[0] - a[0]) / a[0]:.1%}"]
            print(f"| {w['name']} | {raw.removesuffix('_raw')} | {' | '.join(cells)} |")
    sys.exit(0 if ok else 1)


main()
