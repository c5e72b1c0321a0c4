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
from contextlib import suppress
from dataclasses import dataclass, replace
from itertools import product
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .correlations import _measured_entropy, entropy_of_eigenvalues, mutual_information, state_entropies
from .exceptions import InvalidParameters
from .measurement import (
    ProjectiveMeasurement,
    _check_dims,
    _dephase,
    _givens_product,
    _parameters_for_basis,
    basis_from_parameters,
    conditional_blocks,
)
from .operator_core import _side, commutator_norm, eig
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
        # Booleans are Integral too, but True is not a count or a seed.
        for name, floor in (("restarts", 1), ("seed", 0), ("threads", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise InvalidParameters(f"{name} must be an integer, got {value!r}")
            if value < floor:
                raise InvalidParameters(f"{name} must be >= {floor}, got {value!r}")


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
    """Outcome of the zero-discord test with its evidence.

    ``commutator_norm`` is the commutator that decided the verdict: the
    blocks' largest pairwise commutator when they prove NONZERO for a
    degenerate marginal, else that of the lifted marginal with the state.
    """

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
    return _measured_entropy(conditional_blocks(state.rho, state.dims, basis, side))


def _entropy_profile(state: BipartiteState, basis: np.ndarray, side: str):
    """(H(outcomes), conditional entropy of the other side, post-measurement entropy)."""
    probs, spectra, s_conditional = _conditional_entropy(state, basis, side)
    return entropy_of_eigenvalues(probs), s_conditional, entropy_of_eigenvalues(spectra.ravel())


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
    """Measurement-fixed entropy production H(outcomes) + S(other|m) - S(rho_AB),
    which equals S(post_measurement_state) - S(rho_AB): the post-measurement
    state is block diagonal, one block p_k rho_other|k per outcome."""
    _check_dims(state, m)
    return _at_basis("D2", state, m.basis, m.subsystem).value


class _SimplexResult(NamedTuple):
    x: np.ndarray
    fun: float
    success: bool
    nfev: int


class _EvaluationCap(Exception):
    """Raised in place of the evaluation past ``MAX_EVALUATIONS``."""


def _nelder_mead(objective, start: np.ndarray) -> _SimplexResult:
    """One Nelder-Mead simplex from ``start``, stopped at ``MAX_EVALUATIONS``
    evaluations; an empty start, the one point of a chart without angles, is
    evaluated once. Each step, comparison, sort and cap check is that of the
    reference implementation (see the README), which the tests match bit for bit.
    """
    if start.size == 0:
        return _SimplexResult(start, objective(start), True, 1)
    cap = MAX_EVALUATIONS
    calls = 0

    def f(x: np.ndarray) -> float:
        nonlocal calls
        if calls >= cap:
            raise _EvaluationCap
        calls += 1
        return objective(x)

    n = start.size
    sim = np.array([start] * (n + 1), dtype=float)
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * start[k] if start[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    with suppress(_EvaluationCap):
        for k in range(n + 1):
            fsim[k] = f(sim[k])
    # argsort is not stable, so the second sort can still reorder tied values.
    for _ in range(2):
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)

    while calls < cap:
        with suppress(_EvaluationCap):
            if np.max(np.abs(sim[1:] - sim[0])) <= 1e-6 and np.max(np.abs(fsim[0] - fsim[1:])) <= SIMPLEX_TOLERANCE:
                break
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                outside = fxr < fsim[-1]
                xc = (1.5 * xbar - 0.5 * sim[-1]) if outside else (0.5 * xbar + 0.5 * sim[-1])
                fxc = f(xc)
                if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                    sim[-1], fsim[-1] = xc, fxc
                else:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = f(sim[j])
        order = np.argsort(fsim)
        sim, fsim = np.take(sim, order, 0), np.take(fsim, order, 0)
    return _SimplexResult(sim[0], np.min(fsim), calls < cap, calls)


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

    first = _parameters_for_basis(eig(state.marginal(side)).eigenvectors)
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
    dephased = BipartiteState(state.dims, _dephase(state.rho, product_basis))
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


def _block_commutator(blocks: list[np.ndarray]) -> float:
    """Largest ``commutator_norm(blocks[i], blocks[j])`` over i < j, one stacked matmul per i."""
    stack = np.array(blocks, dtype=complex)
    return max((float(np.max(np.abs(x @ stack[i + 1:] - stack[i + 1:] @ x))) for i, x in enumerate(stack[:-1])),
               default=0.0)


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
       must commute pairwise. Blocks decisively failing to commute prove
       nonzero discord, and the residual at the marginal's eigenbasis is
       reported as an upper bound. Otherwise their simultaneous eigenbasis is
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
        # The family holds rho_ji = rho_ij^dagger, so the pairwise commutators
        # include [rho_ij, rho_ij^dagger]: commuting blocks are normal. [y, x]
        # is exactly -[x, y] and [x, x] exactly 0, so each pair is taken once.
        block_commutator = _block_commutator(blocks)
        if block_commutator > COMMUTATOR_TOL * AMBIGUITY_FACTOR:
            # No basis diagonalizes the whole family, so the discord is
            # nonzero; the residual at the eigenbasis is only an upper bound.
            upper_bound = discord_d1_at(state, ProjectiveMeasurement(side, system.eigenvectors)).value
            return ZeroDiscordVerdict(VERDICT_NONZERO, block_commutator, upper_bound, method)
        blocks_clean = block_commutator <= COMMUTATOR_TOL
        witness_basis = _simultaneous_eigenbasis(blocks, marginal.shape[0])
        if witness_basis is None:
            return ZeroDiscordVerdict(VERDICT_AMBIGUOUS, c_norm, None, method)

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
