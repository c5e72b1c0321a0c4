"""Rank-1 projective measurements, their angle chart, and measurement updates.

The measurement chart maps d(d-1) real angles to an orthonormal basis through a
product of complex Givens rotations, one rotation per index plane (p, q) taken
in lexicographic order, two angles (theta, phi) per plane:

    G(p, q, theta, phi) = identity except
        G[p, p] =  cos(theta/2)      G[p, q] = -exp(+i phi) sin(theta/2)
        G[q, p] =  exp(-i phi) sin(theta/2)   G[q, q] = cos(theta/2)

The all-zero parameter vector is the computational basis; for d = 2 the single
plane at theta = pi/2, phi = 0 gives the sigma_x eigenbasis. Every rank-1
projective measurement is reachable: a QR-style elimination recovers angles for
any target basis (``_parameters_for_basis``, which gives the discord search its
eigenbasis start), so the chart is surjective onto bases modulo per-vector
phases, which projectors ignore. Measurement updates see the state with the
measured factor's indices first (``operator_core._oriented``), so one index
pattern serves both sides.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

from .exceptions import InvalidParameters
from .operator_core import _oriented, _side
from .states import BipartiteState

COMPLETENESS_TOL = 1e-10
OUTCOME_CLIP = 1e-12


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """Complete family of rank-1 orthogonal projectors on one subsystem.

    ``basis`` columns are the measured directions; projector a is the outer
    product of column a with itself. A basis that is not square and nonempty
    with orthonormal columns within 1e-10, or a subsystem other than "A" or
    "B", raises InvalidParameters.
    """

    subsystem: str
    basis: np.ndarray

    def __post_init__(self) -> None:
        side = _side(self.subsystem)
        u = np.array(self.basis, dtype=complex)
        if u.ndim != 2 or u.shape[0] != u.shape[1] or u.size == 0:
            raise InvalidParameters(f"basis must be square and nonempty, got shape {u.shape}")
        if not np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))) <= COMPLETENESS_TOL:
            raise InvalidParameters("projector family does not resolve the identity")
        u.flags.writeable = False
        object.__setattr__(self, "subsystem", side)
        object.__setattr__(self, "basis", u)

    @property
    def d(self) -> int:
        return self.basis.shape[0]

    @property
    def projectors(self) -> list[np.ndarray]:
        return [np.outer(self.basis[:, k], self.basis[:, k].conj()) for k in range(self.d)]


def _planes(d: int) -> list[tuple[int, int]]:
    return [(p, q) for p in range(d) for q in range(p + 1, d)]


def _givens(d: int, p: int, q: int, theta, phi) -> np.ndarray:
    """G(p, q, theta, phi), stacked over the shape of ``theta`` and ``phi``."""
    g = np.empty(np.shape(theta) + (d, d), dtype=complex)
    g[...] = np.eye(d)
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    g[..., p, p] = c
    g[..., q, q] = c
    g[..., p, q] = -np.exp(1j * phi) * s
    g[..., q, p] = np.exp(-1j * phi) * s
    return g


def basis_from_parameters(params, d: int) -> np.ndarray:
    """Unitary whose columns are the chart point for the given angles, stacked
    over the leading axes of ``params``."""
    x = np.atleast_1d(np.asarray(params, dtype=float))
    if x.shape[-1] != d * (d - 1):
        raise InvalidParameters(f"need {d * (d - 1)} angles for dimension {d}, got {x.shape[-1]}")
    return _givens_product(x, d, _planes(d))


def _givens_product(params, d: int, planes) -> np.ndarray:
    """Product of the rotations G(p, q, params[..., 2k], params[..., 2k + 1])
    over the k-th plane (p, q) of ``planes``, in order; the identity for no
    planes. Leading axes of ``params`` stack the products."""
    rotations = [_givens(d, p, q, params[..., 2 * k], params[..., 2 * k + 1]) for k, (p, q) in enumerate(planes)]
    if not rotations:
        return np.broadcast_to(np.eye(d, dtype=complex), params.shape[:-1] + (d, d)).copy()
    # A lone rotation (d = 2) has -0.0 entries at zero phase; adding 0.0 maps
    # them to +0.0, as matrix products do, so --json never prints -0.0 here.
    return reduce(np.matmul, rotations) + 0.0


def _parameters_for_basis(basis: np.ndarray) -> np.ndarray:
    """Chart angles reproducing the projector family of the given unitary.

    Runs the Givens elimination in plane order; the residue is a diagonal phase
    matrix, which projectors are blind to.
    """
    d = basis.shape[0]
    w = basis
    angles: list[float] = []
    for p, q in _planes(d):
        x, y = w[p, p], w[q, p]
        if abs(y) < 1e-14:
            theta, phi = 0.0, 0.0
        elif abs(x) < 1e-14:
            theta, phi = np.pi, float(-np.angle(y))
        else:
            theta = float(2 * np.arctan2(abs(y), abs(x)))
            phi = float(np.angle(x) - np.angle(y))
        angles.extend((theta, phi))
        w = _givens(d, p, q, theta, phi).conj().T @ w
    return np.array(angles)


def conditional_blocks(rho: np.ndarray, dims: tuple[int, int], basis: np.ndarray, side: str) -> np.ndarray:
    """Unnormalized conditional operators <u_k| rho |u_k> on the unmeasured side.

    Returns an array of shape (..., d_side, d_other, d_other), stacked over the
    leading axes of ``basis``; the trace of block k is the outcome probability p_k.
    """
    r4 = _oriented(rho.reshape(*dims, *dims), side)
    return np.einsum("...ak,aibj,...bk->...kij", basis.conj(), r4, basis)


def _check_dims(state: BipartiteState, m: ProjectiveMeasurement) -> None:
    """Raise InvalidParameters unless ``m`` acts on its subsystem's dimension."""
    expected = state.d_a if m.subsystem == "A" else state.d_b
    if m.d != expected:
        raise InvalidParameters(
            f"measurement dimension {m.d} does not match subsystem {m.subsystem} of dims {state.dims}"
        )


def post_measurement_state(state: BipartiteState, m: ProjectiveMeasurement) -> BipartiteState:
    """State after the measurement outcome is averaged over (dephasing on one side).

    Block diagonal in the measurement basis; the marginal of the unmeasured
    side is unchanged.
    """
    _check_dims(state, m)
    u = m.basis
    blocks = conditional_blocks(state.rho, state.dims, u, m.subsystem)
    rho = _oriented(np.einsum("ak,ck,kij->aicj", u, u.conj(), blocks), m.subsystem)
    return BipartiteState(state.dims, rho.reshape(state.dim, state.dim))


def _dephase(rho: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Remove off-diagonal terms of ``rho`` in the given unitary basis."""
    diagonal = np.diag(basis.conj().T @ rho @ basis).real
    return (basis * diagonal) @ basis.conj().T
