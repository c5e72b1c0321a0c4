"""The benchmark's own tests: each workload runs one round and passes its
checks, the checkers catch a wrong value, and the tracer covers every
namespace. Run from the repository root:

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import oracle
import run
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS


def one_round(name, tmp_path, tracer=None):
    workload = WORKLOADS[name](7, str(tmp_path), tracer)
    return workload, run.measure(workload, seconds=0, min_items=1)


def test_oracle_self_check():
    assert oracle.self_check() == []


def test_grid_finds_a_minimum_next_to_a_pole_in_a_second_basin():
    # D2 of this (2, 4) state is lowest 0.03 rad from theta = 0, in a basin
    # the coarse grid ranks second; zooming around the best cell alone gave
    # 0.2657838.
    rho = oracle.ginibre_state((2, 4), seed=1512219297)
    assert abs(oracle.plane_grid_min(rho, (2, 4), "A", "D2") - 0.2657577984775856) < 1e-9


@pytest.mark.parametrize("name", ["qubit_analyze", "qudit_search"])
def test_in_process_workload_round_passes_its_checks(name, tmp_path):
    _, result = one_round(name, tmp_path)
    assert result["rounds"] == 1
    assert result["problems"] == {}
    assert result["failed"] == {}


def test_cli_cold_round_fails_only_on_the_nan_documents(tmp_path):
    workload, result = one_round("cli_cold", tmp_path)
    assert result["problems"] == {}
    assert sorted(key.split(":")[0] for key in result["failed"]) == ["nan_explicit", "nan_family"]
    assert sum(result["failed"].values()) == 2
    assert len(result["durations"]) == len(workload.rounds[0])


def test_perturbed_d1_is_caught(tmp_path):
    workload = WORKLOADS["qubit_analyze"](7, str(tmp_path))
    item = workload.rounds[0][0]
    report = workload.run(item)
    assert workload.check(item, report) == []
    report["discord"]["d1"]["value"] += 1e-4
    assert any("D1" in problem for problem in workload.check(item, report))


def test_degenerate_flag_is_checked_against_the_construction(tmp_path):
    workload = WORKLOADS["qubit_analyze"](7, str(tmp_path))
    item = next(i for i in workload.rounds[0] if i.kind == "example_state" and i.spec["b"] == 0.0)
    report = workload.run(item)
    assert workload.check(item, report) == []
    report["discord"]["d3"]["diagnostics"]["degenerate_marginal"] = False
    assert any("degenerate" in problem for problem in workload.check(item, report))


def test_perturbed_qudit_search_value_is_caught(tmp_path):
    # A D2 item checked with no D1 before it, as after a failed D1 call.
    workload = WORKLOADS["qudit_search"](7, str(tmp_path))
    item = next(i for i in workload.rounds[0] if i.spec.get("measure") == "D2" and i.spec["dims"] == (2, 4))
    report = workload.run(item)
    assert workload.check(item, report) == []
    wrong = dataclasses.replace(report, value=report.value + 1e-4)
    assert workload.check(item, wrong) != []


def test_cli_wrong_verdict_is_caught(tmp_path):
    workload = WORKLOADS["cli_cold"](7, str(tmp_path))
    item = next(i for i in workload.rounds[0] if i.kind == "classify" and i.spec["verdict"] == "ZERO")
    code, out = workload.run(item)
    assert workload.check(item, (code, out)) == []
    assert workload.check(item, (1, out.replace("ZERO", "NONZERO", 1))) != []


def test_tracer_wraps_every_namespace_and_counts_evaluations():
    import discordant
    from discordant import correlations, discord, measurement

    original = measurement.conditional_blocks
    tracer = Tracer()
    tracer.install()
    try:
        assert measurement.conditional_blocks is not original
        assert discord.conditional_blocks is correlations.conditional_blocks is measurement.conditional_blocks
        assert discordant.optimize_discord is discord.optimize_discord
        state = discordant.example_state(0.5, 0.5)
        config = discordant.OptimizerConfig(restarts=2, seed=1, threads=2)
        report = discordant.optimize_discord("D1", state, config=config)
        discordant.work_ledger(state, config=discordant.OptimizerConfig(restarts=1))
    finally:
        tracer.uninstall()
    assert discord.conditional_blocks is correlations.conditional_blocks is original
    metrics = layer_metrics(tracer.dump(), 0.5, 0.25)
    assert metrics["discord.optimize_calls"]["value"] == 2
    assert metrics["demon.optimize_calls"]["value"] == 1
    assert metrics["discord.function_evaluations"]["value"] >= report.diagnostics.function_evaluations
    assert metrics["measurement.basis_from_parameters_calls"]["value"] > report.diagnostics.function_evaluations
    assert metrics["states.bipartite_state_calls"]["value"] >= 1
    assert metrics["demon.work_ledger_s"]["value"] > 0


def test_without_the_program_the_benchmark_exits_nonzero_and_prints_no_result(tmp_path):
    bench = os.path.dirname(os.path.abspath(__file__))
    shutil.copytree(bench, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(bench), "BENCHMARK.json"), tmp_path)
    done = subprocess.run([sys.executable, "benchmarks/run.py", "--workload", "cli_cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=180)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_traced_cli_children_write_spans_that_merge(tmp_path):
    workload = WORKLOADS["cli_cold"](7, str(tmp_path), Tracer())
    item = next(i for i in workload.rounds[0] if i.kind == "classify" and "--input" in i.spec["args"])
    assert workload.check(item, workload.run(item)) == []
    merged = Tracer()
    for path in sorted(tmp_path.glob("spans*.json")):
        merged.merge(json.loads(path.read_text()))
    metrics = layer_metrics(merged.dump(), 0.5, 0.25)
    assert metrics["documents.calls"]["value"] == 2  # loads_document + document_to_state
    assert metrics["discord.classify_s"]["value"] > 0
