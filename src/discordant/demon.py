"""Work extraction ledgers for the four single-heat-bath engine scenarios.

Scenarios, in kT units with base-2 logarithms ("bits of work"): a global agent
acting on the joint state (w_plus); two local agents who cannot communicate
(w_local); local agents with full state knowledge and one-way communication of
measurement results (w2); the same channel but the measuring side knows only
its own marginal (w3). Memory-resetting costs are excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

import numpy as np

from .correlations import (
    conditional_entropy_after_measurement, information_function, state_entropies, von_neumann_entropy,
)
from .discord import DiscordReport, OptimizerConfig, optimize_discord
from .exceptions import InvalidParameters
from .measurement import ProjectiveMeasurement, post_measurement_state
from .operator_core import eig
from .states import BipartiteState

@dataclass
class WorkLedger:
    """Extractable work for the four scenarios and their differences, in kT
    units, with the D2 search behind w2 and delta_2 (``d2``, in bits, not
    scaled by kT)."""

    kt: float
    w_plus: float
    w_local: float
    w2: float
    w3: float
    delta_l: float
    delta_2: float
    delta_3: float
    d2: DiscordReport


def _check_kt(kt) -> None:
    """Raise InvalidParameters unless ``kt`` is a real number (not a bool) in (0, inf)."""
    if isinstance(kt, bool) or not isinstance(kt, Real) or not 0 < kt < float("inf"):
        raise InvalidParameters(f"kT must be positive and finite, got {kt!r}")


def _scaled(kt: float, *work: float) -> list[float]:
    """``kt`` times each work value; a product that is not finite raises InvalidParameters."""
    scaled = [kt * w for w in work]
    if not np.all(np.isfinite(scaled)):
        raise InvalidParameters(f"kT = {kt!r} makes the work values overflow")
    return scaled


def work_single(rho, kt: float = 1.0) -> float:
    """Optimal average work kT (log2 d - S(rho)) from a single known state; a kT
    whose product with the work is not finite raises InvalidParameters."""
    _check_kt(kt)
    return _scaled(kt, information_function(rho))[0]


def work_ledger(
    state: BipartiteState, kt: float = 1.0, config: OptimizerConfig | None = None
) -> WorkLedger:
    """Work accounting for all four scenarios on a bipartite state.

    Runs one D2 search, ``optimize_discord("D2", state, "A", config)``, for
    w2. The differences are the paper's identities: delta_l is the mutual
    information, delta_2 the one-way deficit ``d2.value`` and delta_3 the
    discord at the marginal's eigenbasis (``discord_d3``); they are computed
    along the work path only. Scaling kT scales every field exactly; a kT
    whose product with the work is not finite raises InvalidParameters.
    """
    _check_kt(kt)
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
    scaled = _scaled(kt, w_plus, w_local, w2, w3, delta_l, delta_2, delta_3)
    return WorkLedger(kt, *scaled, d2=d2)
