"""Work extraction ledgers for the four single-heat-bath engine scenarios.

Scenarios, in kT units with base-2 logarithms ("bits of work"): a global agent
acting on the joint state (w_plus); two local agents who cannot communicate
(w_local); local agents with full state knowledge and one-way communication of
measurement results (w2); the same channel but the measuring side knows only
its own marginal (w3). Memory-resetting costs are excluded throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlations import conditional_entropy_after_measurement, state_entropies, von_neumann_entropy
from .discord import DiscordReport, OptimizerConfig, discord_d3, optimize_discord
from .exceptions import DiscordantError, InvalidParameters
from .measurement import ProjectiveMeasurement, post_measurement_state
from .operator_core import eig
from .states import BipartiteState

_CROSS_CHECK_TOL = 1e-7


@dataclass
class WorkLedger:
    """Extractable work for the four scenarios and their differences, in kT units."""

    kt: float
    w_plus: float
    w_local: float
    w2: float
    w3: float
    delta_l: float
    delta_2: float
    delta_3: float
    measurement_w2: ProjectiveMeasurement


def work_single(rho, kt: float = 1.0) -> float:
    """Optimal average work kT (log2 d - S(rho)) from a single known state."""
    if not 0 < kt < float("inf"):
        raise InvalidParameters(f"kT must be positive and finite, got {kt}")
    m = np.asarray(rho, dtype=complex)
    entropy = von_neumann_entropy(m)
    return kt * (float(np.log2(m.shape[0])) - entropy)


def work_ledger(
    state: BipartiteState,
    kt: float = 1.0,
    config: OptimizerConfig | None = None,
    d2_report: DiscordReport | None = None,
    d3_report: DiscordReport | None = None,
) -> WorkLedger:
    """Work accounting for all four scenarios on a bipartite state.

    The entropy-production differences are computed along the work path and
    cross-checked against the discord measures; the two paths must agree to
    1e-7. Scaling kT scales every field exactly.

    ``d2_report`` (from ``optimize_discord("D2", state, "A", config)``) and
    ``d3_report`` (from ``discord_d3(state, "A")``) are used in place of
    running those again when given; ``config`` then goes unused. A report of
    another measure, or a D2 report measured on side B, raises
    InvalidParameters. The cross-checks apply to passed reports too.
    """
    if not 0 < kt < float("inf"):
        raise InvalidParameters(f"kT must be positive and finite, got {kt}")
    if d2_report is not None and (
        d2_report.measure != "D2" or d2_report.optimal_measurement.subsystem != "A"
    ):
        raise InvalidParameters("d2_report must be a D2 report measured on side A")
    if d3_report is not None and d3_report.measure != "D3":
        raise InvalidParameters(f"d3_report must be a D3 report, got {d3_report.measure}")
    d_a, d_b = state.dims
    log_dim = float(np.log2(d_a * d_b))
    entropies = state_entropies(state)
    s_a, s_b, s_ab = entropies.s_a, entropies.s_b, entropies.s_ab

    w_plus = log_dim - s_ab
    w_local = log_dim - s_a - s_b

    if d2_report is None:
        d2_report = optimize_discord("D2", state, side="A", config=config)
    measurement = d2_report.optimal_measurement
    s_post = von_neumann_entropy(post_measurement_state(state, measurement).rho)
    w2 = log_dim - s_post

    if d3_report is None:
        d3_report = discord_d3(state, side="A")
    star_basis = eig(state.marginal("A")).eigenvectors
    s_cond_star = conditional_entropy_after_measurement(
        state, ProjectiveMeasurement("A", star_basis)
    )
    w3 = (float(np.log2(d_a)) - s_a) + (float(np.log2(d_b)) - s_cond_star)

    delta_l = w_plus - w_local
    delta_2 = w_plus - w2
    delta_3 = w_plus - w3

    for label, direct, via_discord in (
        ("mutual information", delta_l, entropies.mutual_information),
        ("one-way deficit", delta_2, d2_report.value),
        ("eigenbasis discord", delta_3, d3_report.value),
    ):
        if abs(direct - via_discord) > _CROSS_CHECK_TOL:
            raise DiscordantError(
                f"work difference disagrees with {label}: {direct!r} vs {via_discord!r}"
            )

    return WorkLedger(
        kt=kt,
        w_plus=kt * w_plus,
        w_local=kt * w_local,
        w2=kt * w2,
        w3=kt * w3,
        delta_l=kt * delta_l,
        delta_2=kt * delta_2,
        delta_3=kt * delta_3,
        measurement_w2=measurement,
    )
