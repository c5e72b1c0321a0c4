"""Validated bipartite density matrices and the named state families."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameters
from .operator_core import PSD_FLOOR, _dims, _integral, partial_trace, require_hermitian

TRACE_TOL = 1e-10
# Largest d_A * d_B that random_state draws: its Ginibre matrix holds
# (d_A d_B)^2 complex entries, 16 MB at this cap.
MAX_RANDOM_DIM = 1024

_SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
_SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def validate_density_matrix(matrix, dim: int | None = None) -> np.ndarray:
    """Check Hermiticity, unit trace and positivity; return the complex array."""
    m = require_hermitian(matrix)
    if dim is not None and m.shape[0] != dim:
        raise InvalidParameters(f"expected dimension {dim}, got {m.shape[0]}")
    trace = complex(np.trace(m))
    if not abs(trace - 1.0) <= TRACE_TOL:
        raise InvalidParameters(f"trace {trace.real:.12f} differs from 1 beyond {TRACE_TOL:.1e}")
    smallest = float(np.linalg.eigvalsh(m)[0])
    if smallest < PSD_FLOOR:
        raise InvalidParameters(f"eigenvalue {smallest:.3e} below {PSD_FLOOR:.1e}")
    return m


def _is_distribution(w: np.ndarray) -> bool:
    """Whether every entry is at least -1e-12 and they sum to 1 within TRACE_TOL; nan fails."""
    return bool(np.all(w >= -1e-12)) and abs(w.sum() - 1.0) <= TRACE_TOL


@dataclass(frozen=True)
class BipartiteState:
    """Density matrix with an explicit (d_A, d_B) tensor factorization.

    Validated on construction: two integral dims of at least 1 (integral floats
    such as 2.0 are accepted, booleans are not), Hermitian within 1e-12, unit
    trace within 1e-10, positive semidefinite within -1e-10. Immutable thereafter.
    """

    dims: tuple[int, int]
    rho: np.ndarray

    def __post_init__(self) -> None:
        dims = _dims(self.dims)
        rho = validate_density_matrix(self.rho, dim=dims[0] * dims[1]).copy()
        rho.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "rho", rho)

    @property
    def d_a(self) -> int:
        return self.dims[0]

    @property
    def d_b(self) -> int:
        return self.dims[1]

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def marginal(self, side: str) -> np.ndarray:
        """Reduced density matrix of subsystem "A" or "B"."""
        return partial_trace(self.rho, self.dims, keep=side)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)


@dataclass(frozen=True)
class PureStateEnsemble:
    """Weighted family of pure states on a bipartite space."""

    dims: tuple[int, int]
    weights: np.ndarray
    vectors: np.ndarray  # rows are the state vectors

    def __post_init__(self) -> None:
        dims = _dims(self.dims)
        w = np.asarray(self.weights, dtype=float)
        v = np.asarray(self.vectors, dtype=complex)
        if w.ndim != 1 or not _is_distribution(w):
            raise InvalidParameters("weights must be nonnegative and sum to 1")
        if v.ndim != 2 or v.shape[0] != w.size or v.shape[1] != dims[0] * dims[1]:
            raise InvalidParameters(f"vectors shape {v.shape} incompatible with {w.size} weights on dims {dims}")
        norms = np.linalg.norm(v, axis=1)
        if not np.all(np.abs(norms - 1.0) <= 1e-10):
            raise InvalidParameters("ensemble vectors must be unit norm")
        w = np.where(w < 0, 0.0, w)
        w.flags.writeable = False
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "vectors", v)

    def density_matrix(self) -> BipartiteState:
        rho = np.einsum("k,ki,kj->ij", self.weights, self.vectors, self.vectors.conj())
        return BipartiteState(self.dims, rho)


def example_state(b: float, c: float) -> BipartiteState:
    """Two-qubit family (1/4)(1 + b sigma_z x 1 + c sigma_x x sigma_x).

    Any (b, c) is accepted as long as the resulting matrix is positive
    semidefinite; otherwise InvalidParameters is raised.
    """
    rho = 0.25 * (
        np.eye(4, dtype=complex)
        + float(b) * np.kron(_SIGMA_Z, np.eye(2))
        + float(c) * np.kron(_SIGMA_X, _SIGMA_X)
    )
    if float(np.linalg.eigvalsh(require_hermitian(rho))[0]) < PSD_FLOOR:
        raise InvalidParameters(f"b={b}, c={c} gives a negative eigenvalue; need b^2 + c^2 <= 1")
    return BipartiteState((2, 2), rho)


def bell_psi(sign: int) -> np.ndarray:
    """Bell vector (|01> + sign |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=complex)
    v[1] = 1 / np.sqrt(2)
    v[2] = sign / np.sqrt(2)
    return v


def bell_mixture(a: float) -> BipartiteState:
    """Mixture a |Psi+><Psi+| + (1-a) |Psi-><Psi-| with |Psi+-> = (|01> +- |10>)/sqrt(2)."""
    a = float(a)
    if not 0.0 <= a <= 1.0:
        raise InvalidParameters(f"mixing probability must lie in [0, 1], got {a}")
    plus, minus = bell_psi(+1), bell_psi(-1)
    rho = a * np.outer(plus, plus.conj()) + (1 - a) * np.outer(minus, minus.conj())
    return BipartiteState((2, 2), rho)


def teahouse_vectors() -> np.ndarray:
    """The nine orthogonal 3x3 product vectors, rows in their conventional order:

    |1>|1>, |0>|0+1>, |0>|0-1>, |2>|1+2>, |2>|1-2>,
    |1+2>|0>, |1-2>|0>, |0+1>|2>, |0-1>|2>,

    where |i+-j> means (|i> +- |j>)/sqrt(2).
    """
    e = np.eye(3)
    s = 1 / np.sqrt(2)
    rows = [
        np.kron(e[1], e[1]),
        np.kron(e[0], s * (e[0] + e[1])),
        np.kron(e[0], s * (e[0] - e[1])),
        np.kron(e[2], s * (e[1] + e[2])),
        np.kron(e[2], s * (e[1] - e[2])),
        np.kron(s * (e[1] + e[2]), e[0]),
        np.kron(s * (e[1] - e[2]), e[0]),
        np.kron(s * (e[0] + e[1]), e[2]),
        np.kron(s * (e[0] - e[1]), e[2]),
    ]
    return np.array(rows, dtype=complex)


def teahouse_ensemble(weights=None) -> PureStateEnsemble:
    """Ensemble over the nine teahouse vectors; equal weights by default."""
    if weights is None:
        weights = np.full(9, 1 / 9)
    w = np.asarray(weights, dtype=float)
    if w.shape != (9,):
        raise InvalidParameters(f"expected 9 weights, got shape {w.shape}")
    return PureStateEnsemble((3, 3), w, teahouse_vectors())


def zero_discord_state(p, basis_a, sigmas_b) -> BipartiteState:
    """Mixture sum_a p_a |a><a| x sigma_a, zero discord on side A by construction.

    ``basis_a`` holds orthonormal vectors on A (rows or a sequence), one per
    weight; ``sigmas_b`` the matching density matrices on B.
    """
    w = np.asarray(p, dtype=float)
    if w.ndim != 1 or not _is_distribution(w):
        raise InvalidParameters("p must be a probability vector")
    vectors = np.asarray(basis_a, dtype=complex)
    if vectors.ndim != 2 or vectors.shape[0] != w.size:
        raise InvalidParameters("need one basis vector per weight")
    d_a = vectors.shape[1]
    if w.size > d_a:
        raise InvalidParameters(f"{w.size} weights cannot fit in dimension {d_a}")
    gram = vectors @ vectors.conj().T
    if not np.max(np.abs(gram - np.eye(w.size))) <= 1e-10:
        raise InvalidParameters("basis_a vectors are not orthonormal")
    sigmas = [validate_density_matrix(s) for s in sigmas_b]
    if len(sigmas) != w.size:
        raise InvalidParameters("need one sigma per weight")
    d_b = sigmas[0].shape[0]
    rho = np.zeros((d_a * d_b, d_a * d_b), dtype=complex)
    for weight, vector, sigma in zip(w, vectors, sigmas):
        if sigma.shape[0] != d_b:
            raise InvalidParameters("sigmas_b must share one dimension")
        rho += weight * np.kron(np.outer(vector, vector.conj()), sigma)
    return BipartiteState((d_a, d_b), rho)


def classical_classical_state(w) -> BipartiteState:
    """Diagonal state sum_ab w_ab |a><a| x |b><b| in the computational product basis."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 2:
        raise InvalidParameters(f"expected a 2-D weight matrix, got shape {w.shape}")
    if not _is_distribution(w):
        raise InvalidParameters("weights must be nonnegative and sum to 1")
    rho = np.diag(np.maximum(w, 0.0).ravel()).astype(complex)
    return BipartiteState((w.shape[0], w.shape[1]), rho)


def random_state(dims: tuple[int, int], rank: int | None = None, seed: int = 0) -> BipartiteState:
    """Seeded random state: partial trace of a Haar-random pure state over a
    rank-dimensional ancilla (Ginibre construction). Deterministic per seed.

    A d_A * d_B above MAX_RANDOM_DIM raises InvalidParameters before the draw.
    Integral floats such as 3.0 are accepted; a dimension, rank or seed that
    is not integral or is a boolean, and dims without exactly two entries,
    raise InvalidParameters.
    """
    d_a, d_b = _dims(dims)
    dim = d_a * d_b
    if dim > MAX_RANDOM_DIM:
        raise InvalidParameters(f"d_A * d_B = {dim} exceeds the cap of {MAX_RANDOM_DIM}")
    rank = dim if rank is None else _integral(rank, "rank")
    if not 1 <= rank <= dim:
        raise InvalidParameters(f"rank must lie in [1, {dim}], got {rank}")
    rng = np.random.default_rng(_integral(seed, "seed"))
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return BipartiteState((d_a, d_b), rho)
