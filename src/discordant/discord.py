"""Discord measures, the measurement optimizer, and zero-discord classification.

Measures (all in bits, all over rank-1 projective measurements):

* D1 minimizes S(rho_side) + S(rho_other | measurement) - S(rho_AB);
* D2 (one-way deficit) minimizes the total post-measurement entropy increase;
* D3 evaluates the same functional at the eigenbasis of the measured marginal;
* D3SYM is the mutual-information loss under dephasing in both marginal
  eigenbases (measurement-induced disturbance).
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import product
from typing import NamedTuple

import numpy as np
from scipy.optimize import OptimizeResult, minimize

from .correlations import entropy_of_eigenvalues, mutual_information, state_entropies
from .exceptions import DiscordantError, InvalidParameters
from .measurement import (
    OUTCOME_CLIP,
    ProjectiveMeasurement,
    _check_dims,
    _givens_product,
    basis_from_parameters,
    conditional_blocks,
    dephase,
    parameters_for_basis,
    post_measurement_state,
)
from .operator_core import commutator_norm, eig
from .states import BipartiteState

# Nominal zero threshold for discord values; the classifier treats a decisive
# quantity within a factor of 10 of its tolerance as ambiguous.
RESIDUAL_TOL = 1e-7
COMMUTATOR_TOL = 1e-8
AMBIGUITY_FACTOR = 10.0

VERDICT_ZERO = "ZERO"
VERDICT_NONZERO = "NONZERO"
VERDICT_AMBIGUOUS = "AMBIGUOUS"
METHOD_COMMUTATOR = "COMMUTATOR"
METHOD_EIGENBASIS = "EIGENBASIS"
METHOD_EIGENSTRUCTURE = "EIGENSTRUCTURE"

# Function-evaluation cap and value tolerance of each measurement simplex.
MAX_EVALUATIONS = 5000
SIMPLEX_TOLERANCE = 1e-9


@dataclass
class OptimizerConfig:
    """Multistart simplex settings; identical configs give identical results."""

    restarts: int = 20
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        # Written as "not (valid)" so that nan fails every test.
        if not self.restarts >= 1:
            raise InvalidParameters(f"restarts must be >= 1, got {self.restarts!r}")
        if not self.seed >= 0:
            raise InvalidParameters(f"seed must be >= 0, got {self.seed!r}")
        if not self.threads >= 1:
            raise InvalidParameters(f"threads must be >= 1, got {self.threads!r}")


@dataclass
class OptimizerDiagnostics:
    """Search evidence; the defaults describe a value taken at a fixed basis."""

    restarts_used: int = 0
    best_per_restart: tuple[float, ...] = ()
    converged: bool = True
    function_evaluations: int = 0
    degenerate_marginal: bool = False
    restricted_infimum: float | None = None


@dataclass
class DiscordReport:
    """Result of a discord evaluation.

    ``optimal_measurement`` is present for the optimized measures D1/D2 and
    absent for D3/D3SYM, whose bases are forced; ``j_value`` carries the
    matching accessible-correlation quantity.
    """

    measure: str
    value: float
    j_value: float
    optimal_measurement: ProjectiveMeasurement | None
    diagnostics: OptimizerDiagnostics


@dataclass
class ZeroDiscordVerdict:
    """Outcome of the zero-discord test with its evidence."""

    verdict: str
    commutator_norm: float
    residual_discord: float | None
    method: str
    witness: ProjectiveMeasurement | None = None


class MeasuredDiscord(NamedTuple):
    value: float
    j_value: float


def _conditional_entropy(state: BipartiteState, basis: np.ndarray, side: str):
    """(outcome probabilities, block spectra, sum_k p_k S(rho_other | k)).

    The search objectives call this directly: H(outcomes) and the
    post-measurement entropy are left to the callers that report them.
    """
    blocks = conditional_blocks(state.rho, state.dims, basis, side)
    probs = np.einsum("kii->k", blocks).real
    spectra = np.linalg.eigvalsh(blocks)
    s_conditional = 0.0
    for p, spectrum in zip(probs, spectra):
        if p > OUTCOME_CLIP:
            s_conditional += p * entropy_of_eigenvalues(spectrum / p)
    return probs, spectra, s_conditional


def _entropy_profile(state: BipartiteState, basis: np.ndarray, side: str):
    """(H(outcomes), conditional entropy of the other side, post-measurement entropy)."""
    probs, spectra, s_conditional = _conditional_entropy(state, basis, side)
    return entropy_of_eigenvalues(probs), s_conditional, entropy_of_eigenvalues(spectra.ravel())


def _side(side) -> str:
    """``side`` as "A" or "B", case-insensitively; anything else raises InvalidParameters."""
    side = str(side).upper()
    if side not in ("A", "B"):
        raise InvalidParameters(f"side must be 'A' or 'B', got {side!r}")
    return side


def _entropies(state: BipartiteState, side: str):
    """(S(rho_side), S(rho_other), S(rho_AB))."""
    e = state_entropies(state)
    if side == "A":
        return e.s_a, e.s_b, e.s_ab
    return e.s_b, e.s_a, e.s_ab


def _at_basis(measure: str, state: BipartiteState, basis: np.ndarray, side: str) -> MeasuredDiscord:
    """D1 (J = S_other - S(other|m)) or D2 (J = S_side + S_other - S_post) at ``basis`` on ``side``."""
    s_side, s_other, s_ab = _entropies(state, side)
    h, s_conditional, s_post = _entropy_profile(state, basis, side)
    if measure == "D1":
        return MeasuredDiscord(s_side + s_conditional - s_ab, s_other - s_conditional)
    return MeasuredDiscord(h + s_conditional - s_ab, s_side + s_other - s_post)


def discord_d1_at(state: BipartiteState, m: ProjectiveMeasurement) -> MeasuredDiscord:
    """Measurement-fixed discord S(rho_side) + S(other|m) - S(rho_AB), together
    with the information gain J = S(rho_other) - S(other|m)."""
    _check_dims(state, m)
    return _at_basis("D1", state, m.basis, m.subsystem)


def discord_d2_at(state: BipartiteState, m: ProjectiveMeasurement) -> float:
    """Measurement-fixed entropy production H(outcomes) + S(other|m) - S(rho_AB).

    Cross-checked internally against the entropy of the assembled
    post-measurement state; a disagreement beyond 1e-9 raises.
    """
    _check_dims(state, m)
    value = _at_basis("D2", state, m.basis, m.subsystem).value
    s_post_direct = entropy_of_eigenvalues(np.linalg.eigvalsh(post_measurement_state(state, m).rho))
    alternative = s_post_direct - state_entropies(state).s_ab
    if abs(value - alternative) > 1e-9:
        raise DiscordantError(
            f"post-measurement entropy paths disagree: {value!r} vs {alternative!r}"
        )
    return value


def _nelder_mead(objective, start: np.ndarray) -> OptimizeResult:
    """One Nelder-Mead simplex from ``start``, stopped at ``MAX_EVALUATIONS``
    evaluations. An empty start, the one point of a chart without angles, is
    evaluated once."""
    if start.size == 0:
        return OptimizeResult(x=start, fun=objective(start), success=True, nfev=1)
    options = dict(fatol=SIMPLEX_TOLERANCE, xatol=1e-6, maxfev=MAX_EVALUATIONS, maxiter=MAX_EVALUATIONS)
    return minimize(objective, start, method="Nelder-Mead", options=options)


def _multistart(objective, first: np.ndarray, config: OptimizerConfig):
    """(best simplex result, diagnostics) of one simplex from ``first`` and one
    from each of ``config.restarts`` random starts seeded by ``config.seed``.

    An empty ``first`` is the only point of its chart and runs alone. Ties
    within 1e-10 resolve to the lowest start index, ``first`` being 0.

    ``converged`` means that a simplex reaching the best value stopped within
    tolerance. It is not a certificate of the global minimum: every start can
    end in the same local minimum. When no such simplex stopped within the
    evaluation budget the flag is cleared; the best point is still returned.
    """
    rng = np.random.default_rng(config.seed)
    starts = [first]
    for _ in range(config.restarts if first.size else 0):
        start = np.empty(first.size)
        start[0::2] = rng.uniform(0.0, np.pi, first.size // 2)
        start[1::2] = rng.uniform(0.0, 2 * np.pi, first.size // 2)
        starts.append(start)
    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(lambda start: _nelder_mead(objective, start), starts))
    else:
        results = [_nelder_mead(objective, start) for start in starts]
    best = results[0]
    for result in results[1:]:
        if result.fun < best.fun - 1e-10:
            best = result
    return best, OptimizerDiagnostics(
        restarts_used=len(results),
        best_per_restart=tuple(float(r.fun) for r in results),
        converged=any(r.success and r.fun <= best.fun + 1e-10 for r in results),
        function_evaluations=int(sum(r.nfev for r in results)),
    )


def optimize_discord(
    measure: str,
    state: BipartiteState,
    side: str = "A",
    config: OptimizerConfig | None = None,
) -> DiscordReport:
    """Minimize D1 or D2 over all rank-1 projective measurements on one side.

    ``_multistart`` over the Givens-angle chart, from the eigenbasis of the
    measured marginal and ``config.restarts`` seeded random points. A
    one-dimensional measured side has the single basis [[1]], which is
    evaluated once and reported as converged.
    """
    measure = str(measure).upper()
    if measure not in ("D1", "D2"):
        raise InvalidParameters(f"optimize_discord handles D1 or D2, got {measure!r}")
    side = _side(side)
    if config is None:
        config = OptimizerConfig()

    d = state.d_a if side == "A" else state.d_b
    s_side, _, s_ab = _entropies(state, side)
    constant = (s_side - s_ab) if measure == "D1" else -s_ab

    def objective(params: np.ndarray) -> float:
        probs, _, s_conditional = _conditional_entropy(state, basis_from_parameters(params, d), side)
        if measure == "D1":
            return s_conditional + constant
        return entropy_of_eigenvalues(probs) + s_conditional + constant

    first = parameters_for_basis(eig(state.marginal(side)).eigenvectors)
    best, diagnostics = _multistart(objective, first, config)
    basis = basis_from_parameters(best.x, d)
    value, j_value = _at_basis(measure, state, basis, side)
    return DiscordReport(measure, float(value), float(j_value), ProjectiveMeasurement(side, basis), diagnostics)


def discord_d3(state: BipartiteState, side: str = "A") -> DiscordReport:
    """Discord evaluated at the eigenbasis of the measured marginal.

    With a degenerate marginal the eigenbasis is not unique: ``eig`` fixes
    only column phases and order, which projectors ignore, so inside a
    degenerate eigenspace the basis is whatever the eigensolver returns. The
    diagnostics then flag the degeneracy and report the restricted search,
    ``_multistart`` at the default ``OptimizerConfig`` from that basis, whose
    ``restricted_infimum`` (least D1 over diagonalizing bases) is <= the value.
    """
    side = _side(side)
    system = eig(state.marginal(side))
    basis = np.array(system.eigenvectors)
    s_side = entropy_of_eigenvalues(system.eigenvalues)
    _, s_other, s_ab = _entropies(state, side)
    h, s_conditional, s_post = _entropy_profile(state, basis, side)
    value = s_side + s_conditional - s_ab
    alternative = s_post - s_ab
    if abs(value - alternative) > 1e-9:
        raise DiscordantError(f"eigenbasis entropy paths disagree: {value!r} vs {alternative!r}")
    j_value = h + s_other - s_post

    diagnostics = OptimizerDiagnostics(degenerate_marginal=system.is_degenerate)
    if system.is_degenerate:
        planes = [(p, q) for group in system.degeneracy_groups for p in group for q in group if p < q]

        def restricted_objective(params: np.ndarray) -> float:
            rotation = _givens_product(params, len(basis), planes)
            _, _, s_cond = _conditional_entropy(state, basis @ rotation, side)
            return s_side + s_cond - s_ab

        best, searched = _multistart(restricted_objective, np.zeros(2 * len(planes)), OptimizerConfig())
        diagnostics = replace(searched, degenerate_marginal=True, restricted_infimum=float(best.fun))
    return DiscordReport("D3", float(value), float(j_value), None, diagnostics)


def discord_d3_symmetric(state: BipartiteState) -> DiscordReport:
    """Measurement-induced disturbance: mutual information lost by dephasing in
    the eigenbases of both marginals."""
    system_a = eig(state.marginal("A"))
    system_b = eig(state.marginal("B"))
    product_basis = np.kron(system_a.eigenvectors, system_b.eigenvectors)
    dephased = BipartiteState(state.dims, dephase(state.rho, product_basis))
    j_value = mutual_information(dephased)
    value = mutual_information(state) - j_value
    diagnostics = OptimizerDiagnostics(
        degenerate_marginal=system_a.is_degenerate or system_b.is_degenerate
    )
    return DiscordReport("D3SYM", float(value), float(j_value), None, diagnostics)


def _side_blocks(state: BipartiteState, side: str) -> list[np.ndarray]:
    # Matrix elements of rho in the other side's computational basis; each block
    # is an operator on the measured side. Simultaneous diagonalizability of the
    # family is equivalent to the product-form decomposition on that side.
    r4 = state.rho.reshape(state.d_a, state.d_b, state.d_a, state.d_b)
    if side == "A":
        return [r4[:, i, :, j] for i, j in product(range(state.d_b), repeat=2)]
    return [r4[a, :, b, :] for a, b in product(range(state.d_a), repeat=2)]


def _simultaneous_eigenbasis(blocks: list[np.ndarray], d: int):
    """Eigenbasis of a random Hermitian combination of the blocks, retried until
    it diagonalizes the whole family; None if no attempt succeeds."""
    for attempt in range(3):
        rng = np.random.default_rng(1234 + attempt)
        combined = np.zeros((d, d), dtype=complex)
        for block in blocks:
            a, b = rng.standard_normal(2)
            combined += a * (block + block.conj().T) + b * 1j * (block - block.conj().T)
        basis = eig(combined).eigenvectors
        off_diagonal = 0.0
        for block in blocks:
            rotated = basis.conj().T @ block @ basis
            off_diagonal = max(off_diagonal, float(np.max(np.abs(rotated - np.diag(np.diag(rotated))))))
        if off_diagonal <= 1e-8:
            return np.array(basis)
    return None


def classify_zero_discord(state: BipartiteState, side: str = "A") -> ZeroDiscordVerdict:
    """Three-stage zero-discord test on one side.

    1. A commutator of the marginal (tensored with identity) with the joint
       state decisively above tolerance proves nonzero discord.
    2. Non-degenerate marginal: its eigenbasis is the only candidate, so the
       discord residual there decides.
    3. Degenerate marginal: the computational-basis blocks of the other side
       must commute pairwise (and be normal); their simultaneous eigenbasis is
       the candidate witness, confirmed by the residual.

    A decisive quantity within a factor of 10 of its tolerance yields
    AMBIGUOUS rather than a verdict.
    """
    side = _side(side)
    marginal = state.marginal(side)
    if side == "A":
        lifted = np.kron(marginal, np.eye(state.d_b))
    else:
        lifted = np.kron(np.eye(state.d_a), marginal)
    c_norm = commutator_norm(lifted, state.rho)
    if c_norm > COMMUTATOR_TOL * AMBIGUITY_FACTOR:
        return ZeroDiscordVerdict(VERDICT_NONZERO, c_norm, None, METHOD_COMMUTATOR)

    system = eig(marginal)
    blocks_clean = True
    if not system.is_degenerate:
        method = METHOD_EIGENBASIS
        witness_basis = np.array(system.eigenvectors)
    else:
        method = METHOD_EIGENSTRUCTURE
        blocks = _side_blocks(state, side)
        block_commutator = max(
            max(commutator_norm(x, y) for y in blocks) for x in blocks
        )
        normality = max(commutator_norm(x, x.conj().T) for x in blocks)
        structure_norm = max(block_commutator, normality)
        blocks_clean = structure_norm <= COMMUTATOR_TOL
        witness_basis = _simultaneous_eigenbasis(blocks, marginal.shape[0])
        if witness_basis is None:
            if structure_norm <= COMMUTATOR_TOL * AMBIGUITY_FACTOR:
                return ZeroDiscordVerdict(VERDICT_AMBIGUOUS, c_norm, None, method)
            # Blocks decisively fail to commute: any basis upper-bounds the
            # discord, so the residual at the marginal's eigenbasis can still
            # prove it nonzero. Unclean blocks never give ZERO below.
            witness_basis = np.array(system.eigenvectors)

    measurement = ProjectiveMeasurement(side, witness_basis)
    residual = discord_d1_at(state, measurement).value
    if residual > RESIDUAL_TOL * AMBIGUITY_FACTOR:
        return ZeroDiscordVerdict(VERDICT_NONZERO, c_norm, residual, method)
    if residual < RESIDUAL_TOL / AMBIGUITY_FACTOR and c_norm <= COMMUTATOR_TOL and blocks_clean:
        return ZeroDiscordVerdict(VERDICT_ZERO, c_norm, residual, method, witness=measurement)
    return ZeroDiscordVerdict(VERDICT_AMBIGUOUS, c_norm, residual, method)


def bell_mixture_discord_closed_form(a: float) -> float:
    """Discord of the two-Bell-state mixture: 1 - H2(a) bits.

    Equivalently 1 + a log2 a + (1-a) log2 (1-a); it vanishes exactly at the
    equal mixture a = 1/2 and matches the measurement optimizer. A sometimes
    seen transcription "a log2 a - (1-a) log2 a + 1" does not vanish at a = 1/2
    and is not used.
    """
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise InvalidParameters(f"mixing probability must lie in [0, 1], got {a}")
    entropy = 0.0
    if 0.0 < a < 1.0:
        entropy = float(-a * np.log2(a) - (1 - a) * np.log2(1 - a))
    return 1.0 - entropy
