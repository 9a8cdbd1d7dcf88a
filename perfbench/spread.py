#!/usr/bin/env python3
"""Re-measure the run-to-run spread the bounds in BENCHMARK.json rest on.

    python3 perfbench/spread.py [--runs 10] [--workload NAME ...] [--first-seed 1]

Run from the repository root. Runs every workload (or the named ones)
--runs times through perfbench/run.py, each time with another seed and the
declared run length, and prints for each end-to-end metric its median, its
quartiles, the spread (third minus first quartile, as a share of the
median) and, beside it, the metric's bound and a third of it. Also prints
the share of failed operations, which must be identical across runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    worst, failures = 0.0, 0
    for w in workloads:
        values, shares = {}, set()
        for i in range(args.runs):
            seed = args.first_seed + i
            out = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            if out.returncode != 0:
                print(f"{w} seed {seed}: run failed ({out.returncode})")
                failures += 1
                continue
            res = json.loads(out.stdout.splitlines()[-1])
            if not res["correct"]:
                print(f"{w} seed {seed}: output checks failed")
                failures += 1
            shares.add(res["failed"] / res["attempted"])
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"\n{w}: {args.runs} runs, failed/attempted per run "
              f"{sorted(shares)}")
        print(f"  {'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6} {'bound/3':>7}")
        for m in spec["end_to_end"]:
            xs = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / q2
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            flag = "" if spread < m["bound"] / 3 else "  <- over a third of the bound"
            print(f"  {m['name']:<20} {q2:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{spread:>7.3f} {m['bound']:>6.2f} {m['bound'] / 3:>7.3f}{flag}")
    print(f"\nlargest spread as a share of its bound (setup_s excluded): {worst:.2f}")
    print(f"runs that failed or failed a check: {failures}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
