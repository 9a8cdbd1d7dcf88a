#!/usr/bin/env python3
"""Build the benchmark from source and run one workload in its own process.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark crate (perfbench/Cargo.toml)
is built in release mode into $CARGO_TARGET_DIR (default: .bench_build),
then started with CA_THREADS set explicitly. Its standard output is passed
through; the last line is the JSON result. Exits non-zero, without a
result, when the build or the run fails.
"""

import argparse
import json
import os
import subprocess
import sys

# The thread count is part of the workload definition: set explicitly,
# never taken from the machine (this value equals nproc on the 2-vCPU
# reference machine the README's figures come from).
CA_THREADS = "2"
# Peak RSS is the high-water mark of two worker threads' allocations. With
# glibc's defaults it also depends on which of many per-thread arenas a
# freed large block stays cached in: VmHWM of one seed moved by up to 18%
# between runs, and on table2-ml20m-ivf three in twenty runs jumped by a
# fifth or more. One arena per thread that allocates at once (the workers
# plus the main thread), and large blocks always mapped and unmapped, keep
# it a measure of what the program holds; attack timings stay within
# run-to-run noise of the defaults (one arena would cost 10-20%).
MALLOC_ENV = {
    "MALLOC_ARENA_MAX": str(int(CA_THREADS) + 1),
    "MALLOC_MMAP_THRESHOLD_": str(128 * 1024),
}
RUN_TIMEOUT_S = 170
HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    env["CA_THREADS"] = CA_THREADS
    env.update(MALLOC_ENV)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "copyattack-perfbench")
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace]
    try:
        run = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                             text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: workload exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        print(f"run.py: workload exited {run.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    missing = declared_metrics(args.trace == "1") - set(result["metrics"])
    if missing:
        print(f"run.py: metrics not reported: {sorted(missing)}", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode."""
    path = os.path.join(HERE, "..", "BENCHMARK.json")
    if not os.path.exists(path):
        return set()
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


if __name__ == "__main__":
    sys.exit(main())
