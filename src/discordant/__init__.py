"""Correlation measures on bipartite quantum states.

Library surface: validated states and the named families (states), rank-1
projective measurements and updates (measurement), entropies and the
conditional-operator construction (correlations), the discord measures with
their optimizer and the zero-discord classifier (discord), work-extraction
ledgers (demon), and the JSON document format (documents). The ``discordant``
command exposes the same through a CLI.
"""

from .correlations import (
    StateEntropies,
    cerf_adami_conditional_entropy,
    cerf_adami_operator,
    conditional_entropy_after_measurement,
    information_function,
    mutual_information,
    one_way_purification_rate,
    state_entropies,
    von_neumann_entropy,
)
from .demon import WorkLedger, work_ledger, work_single
from .discord import (
    DiscordReport,
    MeasuredDiscord,
    OptimizerConfig,
    OptimizerDiagnostics,
    ZeroDiscordVerdict,
    bell_mixture_discord_closed_form,
    classify_zero_discord,
    discord_d1_at,
    discord_d2_at,
    discord_d3,
    discord_d3_symmetric,
    optimize_discord,
)
from .documents import (
    StateDocument,
    document_to_state,
    dumps_document,
    loads_document,
    parse_document,
    state_to_document,
)
from .exceptions import DiscordantError, DocumentError, InvalidParameters
from .measurement import (
    ProjectiveMeasurement,
    post_measurement_state,
)
from .operator_core import (
    EigenSystem,
    commutator_norm,
    eig,
    matrix_log_on_support,
    partial_trace,
)
from .states import (
    BipartiteState,
    PureStateEnsemble,
    bell_mixture,
    classical_classical_state,
    example_state,
    random_state,
    teahouse_ensemble,
    teahouse_vectors,
    zero_discord_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
