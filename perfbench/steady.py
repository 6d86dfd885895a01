#!/usr/bin/env python3
"""Steadiness check for the perfbench benchmark.

Runs each workload once per seed and prints, for every metric, the median,
the quartiles, the extremes and the spread (Q3 - Q1) / median next to the
metric's bound from BENCHMARK.json, plus each workload's failed/attempted
share, which must be identical in every run.

    python3 perfbench/steady.py [--workloads p7-jacobi,...] [--seeds 1-10]
                                [--seconds 20] [--trace 0|1]

Run from the repository root. The bounds in BENCHMARK.json are set from
this output: a metric is steady when its spread is below a third of its
bound (setup_s excepted: only its median shift is bounded).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", default="0", choices=["0", "1"])
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        values, shares, walls = {}, set(), []
        for seed in parse_seeds(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(args.seconds), "--trace", args.trace,
            ]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            walls.append(time.monotonic() - t0)
            if out.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: correct is false\n{out.stdout}")
            shares.add((result["failed"], result["attempted"]))
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n## {workload}: {len(walls)} runs, wall {min(walls):.1f}-{max(walls):.1f} s, "
              f"failed/attempted {sorted(shares)}{'' if len(shares) == 1 else '  UNEQUAL'}")
        print(f"{'metric':36} {'median':>11} {'q1':>11} {'q3':>11} {'min':>11} {'max':>11} "
              f"{'spread':>7} {'bound':>6}")
        for name, vals in sorted(values.items()):
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s" and spread >= bound / 3:
                flag = "  WIDE"
            print(f"{name:36} {med:11.5g} {q1:11.5g} {q3:11.5g} {min(vals):11.5g} "
                  f"{max(vals):11.5g} {spread:7.3f} {'' if bound is None else bound:>6}{flag}")


if __name__ == "__main__":
    main()
