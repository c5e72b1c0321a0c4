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
from dataclasses import dataclass
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

MEASURES = ("D1", "D2", "D3", "D3SYM")

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

# Function-evaluation cap of each simplex in the measurement search.
MAX_EVALUATIONS = 5000


@dataclass
class OptimizerConfig:
    """Multistart simplex settings; identical configs give identical results."""

    restarts: int = 20
    simplex_tolerance: float = 1e-9
    seed: int = 0
    threads: int = 1

    def __post_init__(self) -> None:
        # Written as "not (valid)" so that nan fails every test.
        if not self.restarts >= 1:
            raise InvalidParameters(f"restarts must be >= 1, got {self.restarts!r}")
        if not 0 < self.simplex_tolerance < float("inf"):
            raise InvalidParameters(
                f"simplex_tolerance must be positive and finite, got {self.simplex_tolerance!r}"
            )
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


def discord_d1_at(state: BipartiteState, m: ProjectiveMeasurement) -> MeasuredDiscord:
    """Measurement-fixed discord S(rho_side) + S(other|m) - S(rho_AB), together
    with the information gain J = S(rho_other) - S(other|m)."""
    _check_dims(state, m)
    s_side, s_other, s_ab = _entropies(state, m.subsystem)
    _, s_conditional, _ = _entropy_profile(state, m.basis, m.subsystem)
    return MeasuredDiscord(s_side + s_conditional - s_ab, s_other - s_conditional)


def discord_d2_at(state: BipartiteState, m: ProjectiveMeasurement) -> float:
    """Measurement-fixed entropy production H(outcomes) + S(other|m) - S(rho_AB).

    Cross-checked internally against the entropy of the assembled
    post-measurement state; a disagreement beyond 1e-9 raises.
    """
    _check_dims(state, m)
    _, _, s_ab = _entropies(state, m.subsystem)
    h, s_conditional, _ = _entropy_profile(state, m.basis, m.subsystem)
    value = h + s_conditional - s_ab
    s_post_direct = entropy_of_eigenvalues(np.linalg.eigvalsh(post_measurement_state(state, m).rho))
    alternative = s_post_direct - s_ab
    if abs(value - alternative) > 1e-9:
        raise DiscordantError(
            f"post-measurement entropy paths disagree: {value!r} vs {alternative!r}"
        )
    return value


def _nelder_mead(objective, start: np.ndarray, tolerance: float, cap: int) -> OptimizeResult:
    """One Nelder-Mead simplex from ``start``, stopped at ``cap`` evaluations."""
    return minimize(
        objective,
        start,
        method="Nelder-Mead",
        options=dict(fatol=tolerance, xatol=1e-6, maxfev=cap, maxiter=cap),
    )


def _random_start(rng: np.random.Generator, n_params: int) -> np.ndarray:
    x = np.empty(n_params)
    x[0::2] = rng.uniform(0.0, np.pi, n_params // 2)
    x[1::2] = rng.uniform(0.0, 2 * np.pi, n_params // 2)
    return x


def optimize_discord(
    measure: str,
    state: BipartiteState,
    side: str = "A",
    config: OptimizerConfig | None = None,
) -> DiscordReport:
    """Minimize D1 or D2 over all rank-1 projective measurements on one side.

    Multistart Nelder-Mead over the Givens-angle chart: ``config.restarts``
    seeded random starting points plus the eigenbasis of the measured
    marginal. Deterministic for a fixed config; ties between restarts
    (within 1e-10) resolve to the lowest restart index.

    ``converged`` means that a simplex reaching the best value stopped within
    tolerance. It is not a certificate of the global minimum: every start can
    end in the same local minimum. When no such simplex stopped within the
    evaluation budget the flag is cleared, and the best point found is still
    returned. A one-dimensional measured side has the single basis [[1]],
    which is evaluated once and reported as converged.
    """
    measure = str(measure).upper()
    if measure not in ("D1", "D2"):
        raise InvalidParameters(f"optimize_discord handles D1 or D2, got {measure!r}")
    side = _side(side)
    if config is None:
        config = OptimizerConfig()

    d = state.d_a if side == "A" else state.d_b
    s_side, s_other, s_ab = _entropies(state, side)
    constant = (s_side - s_ab) if measure == "D1" else -s_ab

    def objective(params: np.ndarray) -> float:
        probs, _, s_conditional = _conditional_entropy(state, basis_from_parameters(params, d), side)
        if measure == "D1":
            return s_conditional + constant
        return entropy_of_eigenvalues(probs) + s_conditional + constant

    def run(start: np.ndarray):
        return _nelder_mead(objective, start, config.simplex_tolerance, MAX_EVALUATIONS)

    n_params = d * (d - 1)
    if n_params == 0:
        # A one-dimensional side has the single basis [[1]], and Nelder-Mead
        # cannot start from an empty vector: evaluate it once.
        lone = np.empty(0)
        results = [OptimizeResult(x=lone, fun=objective(lone), success=True, nfev=1)]
    else:
        rng = np.random.default_rng(config.seed)
        starts = [parameters_for_basis(eig(state.marginal(side)).eigenvectors)]
        starts.extend(_random_start(rng, n_params) for _ in range(config.restarts))
        if config.threads > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                results = list(pool.map(run, starts))
        else:
            results = [run(start) for start in starts]

    best_index = 0
    for index in range(1, len(results)):
        if results[index].fun < results[best_index].fun - 1e-10:
            best_index = index
    best = results[best_index]
    basis = basis_from_parameters(best.x, d)
    measurement = ProjectiveMeasurement(side, basis)
    h, s_conditional, s_post = _entropy_profile(state, basis, side)
    if measure == "D1":
        value = s_side + s_conditional - s_ab
        j_value = s_other - s_conditional
    else:
        value = h + s_conditional - s_ab
        j_value = s_side + s_other - s_post

    diagnostics = OptimizerDiagnostics(
        restarts_used=len(results),
        best_per_restart=tuple(float(r.fun) for r in results),
        converged=any(r.success and r.fun <= best.fun + 1e-10 for r in results),
        function_evaluations=int(sum(r.nfev for r in results)),
    )
    return DiscordReport(measure, float(value), float(j_value), measurement, diagnostics)


def _restricted_planes(groups) -> list[tuple[int, int]]:
    planes = []
    for group in groups:
        planes.extend((p, q) for p in group for q in group if p < q)
    return planes


def discord_d3(state: BipartiteState, side: str = "A") -> DiscordReport:
    """Discord evaluated at the eigenbasis of the measured marginal.

    With a degenerate marginal the eigenbasis is not unique; the deterministic
    eigendecomposition convention fixes the reported value, the diagnostics
    flag the degeneracy, and ``restricted_infimum`` brackets the value from
    below over a 50-restart search of bases diagonalizing the marginal.
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
        raise DiscordantError(
            f"eigenbasis entropy paths disagree: {value!r} vs {alternative!r}"
        )
    j_value = h + s_other - s_post

    diagnostics = OptimizerDiagnostics(degenerate_marginal=system.is_degenerate)
    if system.is_degenerate:
        planes = _restricted_planes(system.degeneracy_groups)
        d = basis.shape[0]

        def restricted_objective(params: np.ndarray) -> float:
            rotation = _givens_product(params, d, planes)
            _, _, s_cond = _conditional_entropy(state, basis @ rotation, side)
            return s_side + s_cond - s_ab

        rng = np.random.default_rng(0)
        best = value
        for _ in range(50):
            start = _random_start(rng, 2 * len(planes))
            best = min(best, float(_nelder_mead(restricted_objective, start, 1e-9, 2000).fun))
        diagnostics.restricted_infimum = best
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
