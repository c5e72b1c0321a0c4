"""Entropies, mutual information, the conditional-operator construction, and
one-way purification rates. Everything is in bits; entropies and logarithms
drop eigenvalues at or below SUPPORT_CLIP (1e-12). ``entropy_of_eigenvalues``
takes a stack of rows, and ``_measured_entropy`` is the one kernel behind
every quantity at a measured basis, from (state, basis, side).
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


def entropy_of_eigenvalues(values):
    """-sum(v log2 v) over the entries above SUPPORT_CLIP (1e-12) of each row
    (last axis) of ``values``, no validation: a float for 1-D input, else an
    array (N-D input is not raveled). A pure row gives +0.0, not -0.0.

    Rows shorter than 8 put 1.0 in place of a dropped entry: its term is
    exactly 0.0, and numpy adds fewer than 8 terms one after another. From 8
    terms on its pairwise sum groups them by position, so each such row
    drops its entries itself.
    """
    v = np.asarray(values, dtype=float)
    if v.shape[-1] < 8:
        kept = np.where(v > SUPPORT_CLIP, v, 1.0)
        total = np.sum(kept * np.log2(kept), axis=-1)
    else:
        rows = [row[row > SUPPORT_CLIP] for row in v.reshape(-1, v.shape[-1])]
        total = np.reshape([np.sum(row * np.log2(row)) for row in rows], v.shape[:-1])
    return float(0.0 - total) if v.ndim == 1 else 0.0 - total


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


def _measured_entropy(state: BipartiteState, basis: np.ndarray, side: str):
    """(outcome probabilities, block spectra, sum_k p_k S(rho_other | k)) of
    measuring ``side`` of ``state`` in ``basis``, stacked over the leading axes
    of ``basis``. An outcome at or below OUTCOME_CLIP adds 0.0 in its place."""
    blocks = conditional_blocks(state.rho, state.dims, basis, side)
    probs = np.einsum("...kii->...k", blocks).real
    spectra = np.linalg.eigvalsh(blocks)
    kept = probs > OUTCOME_CLIP
    terms = np.where(kept, probs * entropy_of_eigenvalues(spectra / np.where(kept, probs, 1.0)[..., None]), 0.0)
    s_conditional = 0.0
    for k in range(terms.shape[-1]):
        s_conditional = s_conditional + terms[..., k]
    return probs, spectra, s_conditional


def conditional_entropy_after_measurement(state: BipartiteState, m: ProjectiveMeasurement) -> float:
    """Average entropy of the unmeasured side over the measurement outcomes:
    sum_a p_a S(rho_other | outcome a)."""
    _check_dims(state, m)
    return float(_measured_entropy(state, m.basis, m.subsystem)[2])


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
