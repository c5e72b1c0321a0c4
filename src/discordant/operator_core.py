"""Dense Hermitian-operator algebra: eigensystems, the matrix logarithm, partial traces.

All matrix logarithms are base 2, so every entropy and work quantity
downstream comes out in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InvalidParameters

HERMITICITY_TOL = 1e-12
PSD_FLOOR = -1e-10
SUPPORT_CLIP = 1e-12
DEGENERACY_GAP = 1e-8


def require_hermitian(matrix) -> np.ndarray:
    """Return ``matrix`` as a complex array, raising InvalidParameters unless it is
    nonempty, square, finite and Hermitian within 1e-12 (max-abs deviation from
    the conjugate transpose)."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise InvalidParameters(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParameters("matrix has non-finite entries")
    deviation = float(np.max(np.abs(m - m.conj().T)))
    if not deviation <= HERMITICITY_TOL:
        raise InvalidParameters(f"Hermiticity deviation {deviation:.3e} exceeds {HERMITICITY_TOL:.1e}")
    return m


@dataclass(frozen=True)
class EigenSystem:
    """Spectral data of a Hermitian operator.

    eigenvalues ascend from one degeneracy group to the next, but not always
    inside a group, whose columns are reordered; eigenvectors are the matching
    orthonormal columns; degeneracy_groups partitions the indices into runs
    whose adjacent eigenvalues, in the eigensolver's ascending order, differ by
    less than DEGENERACY_GAP.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    degeneracy_groups: tuple[tuple[int, ...], ...]

    @property
    def is_degenerate(self) -> bool:
        return any(len(group) > 1 for group in self.degeneracy_groups)


def _fix_phase(column: np.ndarray) -> np.ndarray:
    # First component of significant magnitude is rotated to the positive real axis.
    idx = np.flatnonzero(np.abs(column) > 1e-8)
    if idx.size == 0:
        return column
    pivot = column[idx[0]]
    return column * (pivot.conjugate() / abs(pivot))


def _lexicographic_key(column: np.ndarray) -> tuple:
    return tuple((round(float(z.real), 9), round(float(z.imag), 9)) for z in column)


def _degeneracy_groups(values: np.ndarray) -> tuple[tuple[int, ...], ...]:
    groups: list[list[int]] = [[0]]
    for i in range(1, len(values)):
        if values[i] - values[i - 1] < DEGENERACY_GAP:
            groups[-1].append(i)
        else:
            groups.append([i])
    return tuple(tuple(g) for g in groups)


def eig(matrix) -> EigenSystem:
    """Eigendecompose a Hermitian matrix with a deterministic output convention.

    Each eigenvector's first significant component is made real positive; the
    degeneracy groups are found once, on the ascending values, and within a
    group columns are ordered by the lexicographic order of their (phase-fixed)
    entries.
    """
    m = require_hermitian(matrix)
    values, vectors = np.linalg.eigh(m)
    for k in range(vectors.shape[1]):
        vectors[:, k] = _fix_phase(vectors[:, k])
    groups = _degeneracy_groups(values)
    order = np.arange(len(values))
    for group in groups:
        if len(group) > 1:
            idx = list(group)
            idx.sort(key=lambda k: _lexicographic_key(vectors[:, k]))
            order[list(group)] = idx
    values = values[order]
    vectors = vectors[:, order]
    values.flags.writeable = False
    vectors.flags.writeable = False
    return EigenSystem(values, vectors, groups)


def matrix_log_on_support(matrix) -> np.ndarray:
    """Base-2 logarithm of a PSD matrix, defined on its support.

    Eigenvalues at or below SUPPORT_CLIP (1e-12) map to 0 in the output (the null space is
    dropped rather than sent to -inf); an eigenvalue below the -1e-10 floor
    raises InvalidParameters.
    """
    m = require_hermitian(matrix)
    values, vectors = np.linalg.eigh(m)
    if values[0] < PSD_FLOOR:
        raise InvalidParameters(f"eigenvalue {values[0]:.3e} below {PSD_FLOOR:.1e}")
    logs = np.where(values > SUPPORT_CLIP, np.log2(np.maximum(values, SUPPORT_CLIP)), 0.0)
    out = (vectors * logs) @ vectors.conj().T
    return (out + out.conj().T) / 2


def _side(side) -> str:
    """``side`` as "A" or "B", case-insensitively; anything else raises InvalidParameters."""
    name = str(side).upper()
    if name not in ("A", "B"):
        raise InvalidParameters(f"side must be 'A' or 'B', got {side!r}")
    return name


def _integral(value, name: str) -> int:
    """``value`` as an int; a boolean, an int() that fails (NaN, inf, None, a
    string) or one that changes the value raises InvalidParameters."""
    try:
        as_int = int(value)
    except (TypeError, ValueError, OverflowError):
        as_int = None
    if isinstance(value, (bool, np.bool_)) or as_int is None or as_int != value:
        raise InvalidParameters(f"{name} must be an integer, got {value!r}")
    return as_int


def _dims(dims) -> tuple[int, int]:
    """(d_A, d_B) from exactly two integral entries, each at least 1."""
    if len(dims) != 2:
        raise InvalidParameters(f"dims must have two entries, got {dims!r}")
    d_a, d_b = (_integral(d, name) for d, name in zip(dims, ("d_A", "d_B")))
    if d_a < 1 or d_b < 1:
        raise InvalidParameters(f"dims must be positive, got {(d_a, d_b)}")
    return d_a, d_b


def partial_trace(matrix, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one tensor factor of an operator on a (d_A x d_B) composite.

    ``keep`` selects the surviving subsystem, "A" or "B", and ``dims`` must be
    two integral entries of at least 1; anything else raises InvalidParameters.
    """
    side = _side(keep)
    d_a, d_b = _dims(dims)
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (d_a * d_b, d_a * d_b):
        raise InvalidParameters(f"operator shape {m.shape} incompatible with dims {dims}")
    return np.einsum("ibjb->ij", _oriented(m.reshape(d_a, d_b, d_a, d_b), side))


def _oriented(r4: np.ndarray, side: str) -> np.ndarray:
    """The (d_A, d_B, d_A, d_B) array ``r4`` with ``side``'s indices first: itself
    for "A", the factor-swapped view for "B", which is its own inverse."""
    return r4 if side == "A" else r4.transpose(1, 0, 3, 2)


def commutator_norm(x, y) -> float:
    """Max-abs entry of the commutator XY - YX of two nonempty square matrices
    of one shape; other shapes raise InvalidParameters."""
    a = np.asarray(x, dtype=complex)
    b = np.asarray(y, dtype=complex)
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
        raise InvalidParameters(f"incompatible shapes {a.shape} and {b.shape}")
    return float(np.max(np.abs(a @ b - b @ a)))
