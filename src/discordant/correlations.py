"""Entropies, mutual information, the conditional-operator construction, and
one-way purification rates. Everything is in bits; entropies and logarithms
drop eigenvalues at or below SUPPORT_CLIP (1e-12).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .measurement import (
    OUTCOME_CLIP,
    ProjectiveMeasurement,
    _check_dims,
    conditional_blocks,
    post_measurement_state,
)
from .operator_core import SUPPORT_CLIP, matrix_log_on_support, require_hermitian
from .states import BipartiteState, validate_density_matrix


def entropy_of_eigenvalues(values) -> float:
    """-sum(v log2 v) over entries above SUPPORT_CLIP (1e-12); no validation.

    A pure spectrum gives +0.0: the sum there is 0.0, and negating it would
    give -0.0.
    """
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > SUPPORT_CLIP]
    if v.size == 0:
        return 0.0
    return 0.0 - float(np.sum(v * np.log2(v)))


def von_neumann_entropy(rho) -> float:
    """Entropy in bits of a density matrix (validated)."""
    m = validate_density_matrix(rho)
    return entropy_of_eigenvalues(np.linalg.eigvalsh(m))


class StateEntropies(NamedTuple):
    """Ascending spectra of rho_A, rho_B and rho_AB, and their entropies in bits."""

    spectrum_a: np.ndarray
    spectrum_b: np.ndarray
    spectrum_ab: np.ndarray
    s_a: float
    s_b: float
    s_ab: float

    @property
    def mutual_information(self) -> float:
        return self.s_a + self.s_b - self.s_ab


def state_entropies(state: BipartiteState) -> StateEntropies:
    """The marginal and joint spectra of ``state`` with S(rho_A), S(rho_B), S(rho_AB)."""
    spectra = [np.linalg.eigvalsh(m) for m in (state.marginal("A"), state.marginal("B"), state.rho)]
    return StateEntropies(*spectra, *(entropy_of_eigenvalues(v) for v in spectra))


def mutual_information(state: BipartiteState) -> float:
    """Total correlations S(rho_A) + S(rho_B) - S(rho_AB)."""
    return state_entropies(state).mutual_information


def _measured_entropy(blocks: np.ndarray):
    """(outcome probabilities, block spectra, sum_k p_k S(rho_other | k)) of the
    stacked ``conditional_blocks`` of one measurement."""
    probs = np.einsum("kii->k", blocks).real
    spectra = np.linalg.eigvalsh(blocks)
    s_conditional = 0.0
    for p, spectrum in zip(probs, spectra):
        if p > OUTCOME_CLIP:
            s_conditional += p * entropy_of_eigenvalues(spectrum / p)
    return probs, spectra, s_conditional


def conditional_entropy_after_measurement(state: BipartiteState, m: ProjectiveMeasurement) -> float:
    """Average entropy of the unmeasured side over the measurement outcomes:
    sum_a p_a S(rho_other | outcome a)."""
    _check_dims(state, m)
    blocks = conditional_blocks(state.rho, state.dims, m.basis, m.subsystem)
    return float(_measured_entropy(blocks)[2])


def cerf_adami_operator(state: BipartiteState) -> np.ndarray:
    """Conditional operator exp2(-log2 rho_A x 1 + log2 rho_AB), on the support of rho_AB.

    The exponential is evaluated inside the support subspace of rho_AB (the
    compression of the log-difference), which reduces to the plain spectral
    exponential for full-rank states and extends by zero on the null space.
    Positive semidefinite; generally not unit trace. The support of rho_AB
    lies inside that of rho_A x 1, so no joint weight is lost to the null
    space of rho_A.
    """
    rho = state.rho
    log_difference = -np.kron(matrix_log_on_support(state.marginal("A")), np.eye(state.d_b))
    log_difference += matrix_log_on_support(rho)
    values, vectors = np.linalg.eigh(rho)
    support = vectors[:, values > SUPPORT_CLIP]
    compressed = support.conj().T @ log_difference @ support
    w, v = np.linalg.eigh((compressed + compressed.conj().T) / 2)
    exponential = (v * np.exp2(w)) @ v.conj().T
    out = support @ exponential @ support.conj().T
    return (out + out.conj().T) / 2


def cerf_adami_conditional_entropy(state: BipartiteState) -> float:
    """Conditional entropy -tr(rho_AB log2 rho_B|A); can be negative for
    entangled states and equals S(rho_AB) - S(rho_A)."""
    operator = cerf_adami_operator(state)
    log_op = matrix_log_on_support(operator)
    return float(-np.trace(state.rho @ log_op).real)


def information_function(rho) -> float:
    """Knowledge K(rho) = log2(d) - S(rho), between 0 and log2(d)."""
    m = require_hermitian(rho)
    return float(np.log2(m.shape[0])) - von_neumann_entropy(m)


def one_way_purification_rate(state: BipartiteState, m: ProjectiveMeasurement) -> float:
    """Pure-qubit yield log2(d_A d_B) + I(rho') - S(rho_A) - S(rho_B) at the
    supplied measurement; pass the discord-optimal measurement for the optimal rate."""
    measured = post_measurement_state(state, m)
    entropies = state_entropies(state)
    return float(np.log2(state.dim)) + mutual_information(measured) - entropies.s_a - entropies.s_b
