#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs one workload once per seed and reports, for every metric, the median
of its values and the distance between their first and third quartiles
(`statistics.quantiles(values, n=4)`) as a share of that median, next to
the bound `BENCHMARK.json` allows. Run it from the repository root:

    python3 perfbench/spread.py --workload count-engines --seeds 1-10
    python3 perfbench/spread.py --workload all --seeds 1-10 --bin <built perfbench binary>

Without `--bin` each run goes through the `command` of `BENCHMARK.json`.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            seeds.extend(range(int(lo), int(hi) + 1))
        else:
            seeds.append(int(part))
    return seeds


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    started = time.time()
    done = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    elapsed = time.time() - started
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failed\n{done.stderr[-2000:]}")
    return result, elapsed, done.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--bin", help="a built perfbench binary to run directly")
    parser.add_argument("--verbose", action="store_true", help="print every run's values")
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    command = [args.bin] if args.bin else spec["command"]
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    worst = 0.0
    for workload in workloads:
        values = {name: [] for name in bounds}
        times = []
        for seed in parse_seeds(args.seeds):
            result, elapsed, stderr = run_once(command, workload, seed, seconds, 0)
            times.append(elapsed)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            if args.verbose:
                shown = " ".join(f"{n}={result['metrics'][n]['value']:.5g}" for n in bounds)
                calib = [line for line in stderr.splitlines() if line.startswith("calib.")]
                print(f"  seed {seed}: {shown} {' '.join(calib)}", flush=True)
        print(f"{workload}: {len(times)} runs, {min(times):.1f}-{max(times):.1f} s each")
        for name, bound in bounds.items():
            series = values[name]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median if median else float("inf")
            flag = "" if name == "setup_s" or spread < bound / 3 else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"  {name:<16} median {median:>14.6g}  spread {spread:6.3f}  bound {bound:.2f}{flag}")
    print(f"worst spread / bound (setup_s excluded): {worst:.3f}")


if __name__ == "__main__":
    main()
