"""Benchmark of discordant: three workloads, output checks, per-layer trace.

    python3 benchmarks/run.py --workload qubit_analyze --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py            # every workload in turn, untraced

Each run prints a summary on stderr and, as the last line of stdout, one JSON
object with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. See README.md.

The measuring is done in a child process started from this file (--role
measure), so that the program is imported fresh and its peak memory is its
own; further children (--role setup) only set up and exit, to sample set-up
time several times per run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, Failed, cli_environment

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

MIN_ITEMS = 40  # so that item_tail_s, the 75th percentile, has ten samples beyond it
SETUP_SAMPLES = 3  # set-ups per run; setup_s is their median
IMPORT_SAMPLES = 3  # fresh interpreters timed with -X importtime (traced run)
HARD_CAP_S = 100  # no new round starts after this, whatever --seconds says
RUN_BUDGET_S = 170

UNITS = {"setup_s": "s", "items_per_s": "1/s", "item_p50_s": "s", "item_tail_s": "s", "peak_rss_mb": "MB"}


class BenchmarkError(Exception):
    pass


# --- child roles ---------------------------------------------------------------

def _set_up(name: str, seed: int, trace: bool):
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        if WORKLOADS[name].in_process:
            import discordant.cli  # noqa: F401  (install wraps the loaded modules)

            tracer.install()
    return WORKLOADS[name](seed, workdir, tracer), workdir, tracer


def measure(workload, seconds: float, min_items: int = MIN_ITEMS) -> dict:
    """Run whole rounds until both the time and the item floor are reached;
    then check every output. Returns the raw figures of the run."""
    durations, records = [], []
    start = time.perf_counter()
    rounds = 0
    while True:
        for item in workload.rounds[rounds % len(workload.rounds)]:
            began = time.perf_counter()
            try:
                output = workload.run(item)
            except Failed as failure:
                output = failure
            durations.append(time.perf_counter() - began)
            records.append((item, output))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and len(durations) >= min_items):
            break
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    failed, problems = {}, {}
    for item, output in records:
        if isinstance(output, Failed):
            failed[f"{item.key}: {output}"] = failed.get(f"{item.key}: {output}", 0) + 1
        else:
            for problem in workload.check(item, output):
                problems[f"{item.key}: {problem}"] = problems.get(f"{item.key}: {problem}", 0) + 1
    return {
        "durations": durations,
        "elapsed": elapsed,
        "rounds": rounds,
        "peak_rss_mb": peak_rss_mb,
        "failed": failed,
        "problems": problems,
    }


def child_main(args) -> None:
    workload, workdir, tracer = _set_up(args.workload, args.seed, args.trace)
    setup_done = time.monotonic()
    try:
        result = {"setup_done": setup_done}
        if args.role == "measure":
            result.update(measure(workload, args.seconds))
            if tracer is not None:
                for entry in sorted(os.listdir(workdir)):
                    if entry.startswith("spans"):
                        with open(os.path.join(workdir, entry), encoding="utf-8") as handle:
                            tracer.merge(json.load(handle))
                result["trace"] = tracer.dump()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


# --- the parent ------------------------------------------------------------------

def _spawn(command: list[str], deadline: float) -> subprocess.CompletedProcess:
    """Run a child in its own process group; on overrunning the deadline kill
    the group (the child and any CLI call it has running) and wait for it."""
    child = subprocess.Popen(command, env=cli_environment(ROOT), stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise BenchmarkError(f"{' '.join(command[1:4])} overran the {RUN_BUDGET_S} s budget") from None
    return subprocess.CompletedProcess(command, child.returncode, out, err)


def _role(role: str, args, deadline: float) -> tuple[dict, float]:
    command = [sys.executable, os.path.abspath(__file__), "--role", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    started = time.monotonic()
    done = _spawn(command, deadline)
    if done.returncode != 0:
        raise BenchmarkError(f"{role} child for {args.workload} exited {done.returncode}:\n{done.stderr.strip()}")
    payload = json.loads(done.stdout.strip().splitlines()[-1])
    return payload, payload["setup_done"] - started


def import_times(deadline: float) -> tuple[float, float]:
    """(import discordant.cli, time inside scipy modules) in seconds, from
    -X importtime in a fresh interpreter."""
    done = _spawn([sys.executable, "-X", "importtime", "-c", "import discordant.cli"], deadline)
    if done.returncode != 0:
        raise BenchmarkError(f"import discordant.cli failed:\n{done.stderr.strip()}")
    total = scipy = 0
    for self_us, cumulative_us, indent, module in re.findall(
        r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)", done.stderr
    ):
        if module == "discordant.cli" and len(indent) == 1:
            total = int(cumulative_us)
        if module == "scipy" or module.startswith("scipy."):
            scipy += int(self_us)
    return total / 1e6, scipy / 1e6


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    if args.trace:
        imports = [import_times(deadline) for _ in range(IMPORT_SAMPLES)]
        payload, _ = _role("measure", args, deadline)
    else:
        setups = [_role("setup", args, deadline)[1] for _ in range(SETUP_SAMPLES - 1)]
        payload, setup = _role("measure", args, deadline)
        setups.append(setup)
    durations = payload["durations"]
    observed = {
        "items_per_s": len(durations) / payload["elapsed"],
        "item_p50_s": statistics.median(durations),
        "item_tail_s": statistics.quantiles(durations, n=4, method="inclusive")[2],
        "peak_rss_mb": payload["peak_rss_mb"],
    }
    if args.trace:
        from tracer import layer_metrics

        metrics = layer_metrics(payload["trace"], statistics.median(i[0] for i in imports),
                                statistics.median(i[1] for i in imports))
        os.makedirs(OUT_DIR, exist_ok=True)
        with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"), "w", encoding="utf-8") as f:
            json.dump({"traced_end_to_end": observed, "spans": payload["trace"]["stats"],
                       "counters": payload["trace"]["counters"], "layers": metrics}, f, indent=1, sort_keys=True)
    else:
        observed["setup_s"] = statistics.median(setups)
        metrics = {name: {"value": observed[name], "unit": unit} for name, unit in UNITS.items()}
    result = {
        "correct": not payload["problems"],
        "attempted": len(durations),
        "failed": sum(payload["failed"].values()),
        "metrics": metrics,
    }
    _summarize(args, payload, observed, result)
    return result


def _say(text: str) -> None:
    print(text, file=sys.stderr)


def _summarize(args, payload: dict, observed: dict, result: dict) -> None:
    _say(f"{args.workload} seed {args.seed}{' (traced)' if args.trace else ''}: "
        f"{result['attempted']} attempted in {payload['rounds']} rounds, {result['failed']} failed, "
        f"{'correct' if result['correct'] else 'INCORRECT'}")
    for text, count in list(payload["failed"].items()) + list(payload["problems"].items()):
        _say(f"  {count} x {text}")
    if args.trace:
        _say("  traced end-to-end: " + ", ".join(f"{k} {v:.4g}" for k, v in observed.items()))
    for name, metric in result["metrics"].items():
        _say(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--role", choices=["setup", "measure"], help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role:
        child_main(args)
        return 0
    if not os.path.isfile(os.path.join(ROOT, "src", "discordant", "__init__.py")):
        print(f"error: no discordant package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            print(json.dumps(run_one(args)))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for name in WORKLOADS:
            args.workload = name
            result = run_one(args)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        print(json.dumps(combined))
        return 0
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
