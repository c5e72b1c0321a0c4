import inspect

import discordant

# Every name here computes a quantity of the paper or is used by the CLI,
# another module, an acceptance criterion or the benchmark. Adding or removing
# one changes the library surface.
PUBLIC_NAMES = {
    # submodules
    "correlations", "demon", "discord", "documents", "exceptions", "measurement",
    "operator_core", "states",
    # errors
    "BadParameterCount", "BadRank", "BadWeights", "DimensionMismatch", "DiscordantError",
    "DocumentError", "IncompleteBasis", "InvalidParameters", "NonHermitian",
    "NonOrthogonalBasis", "NotDensityMatrix", "NotPositiveSemidefinite", "SupportMismatch",
    # states and documents
    "BipartiteState", "PureStateEnsemble", "bell_mixture", "classical_classical_state",
    "example_state", "random_state", "teahouse_ensemble", "teahouse_vectors",
    "zero_discord_state", "StateDocument", "document_to_state", "dumps_document",
    "loads_document", "parse_document", "state_to_document",
    # operators and measurements
    "EigenSystem", "commutator_norm", "eig", "matrix_log_on_support", "partial_trace",
    "ProjectiveMeasurement", "dephase", "from_parameters", "parameters_for_basis",
    "post_measurement_state",
    # entropies and correlations
    "StateEntropies", "cerf_adami_conditional_entropy", "cerf_adami_operator",
    "conditional_entropy_after_measurement", "information_function", "mutual_information",
    "one_way_purification_rate", "state_entropies", "von_neumann_entropy",
    # discord
    "DiscordReport", "MeasuredDiscord", "OptimizerConfig", "OptimizerDiagnostics",
    "ZeroDiscordVerdict", "bell_mixture_discord_closed_form", "classify_zero_discord",
    "discord_d1_at", "discord_d2_at", "discord_d3", "discord_d3_symmetric", "optimize_discord",
    # demon
    "WorkLedger", "work_ledger", "work_single",
}


def test_public_surface_is_pinned():
    assert {name for name in discordant.__all__ if not name.startswith("_")} == PUBLIC_NAMES


def test_optimizer_config_fields():
    fields = list(discordant.OptimizerConfig.__dataclass_fields__)
    assert fields == ["restarts", "seed", "threads"]


def test_work_ledger_fields():
    fields = list(discordant.WorkLedger.__dataclass_fields__)
    assert fields == [
        "kt", "w_plus", "w_local", "w2", "w3", "delta_l", "delta_2", "delta_3", "d2",
    ]
    assert list(inspect.signature(discordant.work_ledger).parameters) == ["state", "kt", "config"]
