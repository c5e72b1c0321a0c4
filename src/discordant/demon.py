"""Work extraction ledgers for the four single-heat-bath engine scenarios.

Scenarios, in bits of work (base-2 logarithms; a bit of work is kT ln 2 of
energy): a global agent acting on the joint state (w_plus); two local agents
who cannot communicate (w_local); local agents with full state knowledge and
one-way communication of measurement results (w2); the same channel but the
measuring side knows only its own marginal (w3). Memory-resetting costs are
excluded throughout. The work from one known state alone, log2 d - S(rho), is
``correlations.information_function``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import conditional_entropy_after_measurement, state_entropies, von_neumann_entropy
from .discord import DiscordReport, OptimizerConfig, optimize_discord
from .measurement import ProjectiveMeasurement, post_measurement_state
from .operator_core import eig
from .states import BipartiteState

@dataclass
class WorkLedger:
    """Extractable work for the four scenarios and their differences, in bits,
    with the D2 search behind w2 and delta_2 (``d2``)."""

    w_plus: float
    w_local: float
    w2: float
    w3: float
    delta_l: float
    delta_2: float
    delta_3: float
    d2: DiscordReport


def work_ledger(state: BipartiteState, config: OptimizerConfig | None = None) -> WorkLedger:
    """Work accounting for all four scenarios on a bipartite state.

    Runs one D2 search, ``optimize_discord("D2", state, "A", config)``, for
    w2. The differences are the paper's identities: delta_l is the mutual
    information, delta_2 the one-way deficit ``d2.value`` and delta_3 the
    discord at the marginal's eigenbasis (``discord_d3``); they are computed
    along the work path only.
    """
    d_a, d_b = state.dims
    log_dim = float(np.log2(d_a * d_b))
    entropies = state_entropies(state)
    s_a, s_b, s_ab = entropies.s_a, entropies.s_b, entropies.s_ab

    w_plus = log_dim - s_ab
    w_local = log_dim - s_a - s_b

    d2 = optimize_discord("D2", state, side="A", config=config)
    s_post = von_neumann_entropy(post_measurement_state(state, d2.optimal_measurement).rho)
    w2 = log_dim - s_post

    star = ProjectiveMeasurement("A", eig(state.marginal("A")).eigenvectors)
    s_cond_star = conditional_entropy_after_measurement(state, star)
    w3 = (float(np.log2(d_a)) - s_a) + (float(np.log2(d_b)) - s_cond_star)

    delta_l = w_plus - w_local
    delta_2 = w_plus - w2
    delta_3 = w_plus - w3
    return WorkLedger(w_plus, w_local, w2, w3, delta_l, delta_2, delta_3, d2)
