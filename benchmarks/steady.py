"""Steadiness of the benchmark on one commit: sets of N runs per workload,
each run with its own seed. For each set it prints every end-to-end metric's
median, quartiles and spread (quartile distance over median); across sets it
prints how far each median moved from the first set's, in the metric's worse
direction.

    python3 benchmarks/steady.py --runs 10 --sets 2 --first-seed 100
    python3 benchmarks/steady.py --workload qudit_search --runs 5 --sets 1

A spread at or above a third of its bound is marked WIDE, and a median that
moved by more than its bound is marked MOVED; setup_s is held to both too.
The exit code is 1 if any mark, incorrect run or differing failed share was
seen. The raw results go to benchmarks/out/steady-<workload>-<first seed>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def run(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize(workload: str, sets: list[list[dict]], spec: dict) -> bool:
    runs = [r for results in sets for r in results]
    shares = {r["failed"] / r["attempted"] for r in runs}
    correct = all(r["correct"] for r in runs)
    print(f"{workload}: {len(sets)} x {len(sets[0])} runs, attempted {[r['attempted'] for r in runs]}, "
          f"failed share {sorted(shares)}, {'all correct' if correct else 'INCORRECT RUNS'}")
    steady = correct and len(shares) == 1
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for k, results in enumerate(sets):
            q1, median, q3 = statistics.quantiles([r["metrics"][name]["value"] for r in results], n=4)
            spread = (q3 - q1) / median
            medians.append(median)
            ok = spread < bound / 3
            steady &= ok
            print(f"  {name:<12} set {k + 1}: median {median:<10.5g} q1 {q1:<10.5g} q3 {q3:<10.5g} "
                  f"spread {spread:6.2%}  bound {bound:.0%}  {'ok' if ok else 'WIDE'}")
        sign = 1 if metric["better"] == "lower" else -1
        for k, median in enumerate(medians[1:], start=2):
            worse = sign * (median - medians[0]) / medians[0]
            ok = worse <= bound
            steady &= ok
            print(f"  {name:<12} set {k} against set 1: {worse:+.2%} worse  {'ok' if ok else 'MOVED'}")
    return steady


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *(w["name"] for w in spec["workloads"])])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--first-seed", type=int, default=100)
    args = parser.parse_args()
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    steady = True
    for name in names:
        sets = []
        for k in range(args.sets):
            results = []
            for seed in range(args.first_seed + k * args.runs, args.first_seed + (k + 1) * args.runs):
                results.append(run(name, seed, spec["run_seconds"]))
                print(f"  {name} seed {seed}: " + ", ".join(
                    f"{m} {v['value']:.4g}" for m, v in results[-1]["metrics"].items()), flush=True)
            sets.append(results)
        path = os.path.join(BENCH_DIR, "out", f"steady-{name}-{args.first_seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(sets, handle, indent=1)
        steady &= summarize(name, sets, spec)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
