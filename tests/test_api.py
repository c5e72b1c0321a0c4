import inspect
import os
import subprocess
import sys
from pathlib import Path

import discordant

# Every name here computes a quantity of the paper or is used by the CLI, an
# acceptance criterion or the benchmark. A helper that only other modules of
# the package call stays private. Adding or removing a name changes the
# library surface.
PUBLIC_NAMES = {
    # submodules
    "correlations", "demon", "discord", "documents", "exceptions", "measurement",
    "operator_core", "states",
    # errors
    "DiscordantError", "DocumentError", "InvalidParameters",
    # states and documents
    "BipartiteState", "PureStateEnsemble", "bell_mixture", "classical_classical_state",
    "example_state", "random_state", "teahouse_ensemble", "teahouse_vectors",
    "zero_discord_state", "StateDocument", "document_to_state", "dumps_document",
    "loads_document", "parse_document", "state_to_document",
    # operators and measurements
    "EigenSystem", "commutator_norm", "eig", "matrix_log_on_support", "partial_trace",
    "ProjectiveMeasurement", "post_measurement_state",
    # entropies and correlations
    "StateEntropies", "cerf_adami_conditional_entropy", "cerf_adami_operator",
    "conditional_entropy_after_measurement", "information_function", "mutual_information",
    "one_way_purification_rate", "state_entropies", "von_neumann_entropy",
    # discord
    "DiscordReport", "MeasuredDiscord", "OptimizerConfig", "OptimizerDiagnostics",
    "ZeroDiscordVerdict", "bell_mixture_discord_closed_form", "classify_zero_discord",
    "discord_d1_at", "discord_d2_at", "discord_d3", "discord_d3_symmetric", "optimize_discord",
    # demon
    "WorkLedger", "work_ledger",
}


def test_public_surface_is_pinned():
    assert {name for name in discordant.__all__ if not name.startswith("_")} == PUBLIC_NAMES


def test_optimizer_config_fields():
    fields = list(discordant.OptimizerConfig.__dataclass_fields__)
    assert fields == ["restarts", "seed"]


def test_work_ledger_fields():
    fields = list(discordant.WorkLedger.__dataclass_fields__)
    assert fields == [
        "w_plus", "w_local", "w2", "w3", "delta_l", "delta_2", "delta_3", "d2",
    ]
    assert list(inspect.signature(discordant.work_ledger).parameters) == ["state", "config"]


def test_import_loads_no_scipy():
    # scipy is a test-only oracle; a cold CLI call must not pay for importing it.
    code = ("import sys, discordant, discordant.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = {**os.environ, "PYTHONPATH": str(Path(discordant.__file__).parents[1])}
    child = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "[]"
