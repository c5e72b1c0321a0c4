"""Independent oracles used to freeze expected values.

Nothing here imports the package under test: entropies come straight from
numpy eigenvalues, the measurement search is a dense Bloch-angle grid with
zoom refinement, and the partial trace is an index loop.
"""

from __future__ import annotations

import numpy as np

CLIP = 1e-12


def entropy_bits(values) -> float:
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > CLIP]
    if v.size == 0:
        return 0.0
    return float(-np.sum(v * np.log2(v)))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return float(-p * np.log2(p) - (1 - p) * np.log2(1 - p))


def state_entropy(rho) -> float:
    return entropy_bits(np.linalg.eigvalsh(rho))


def shannon_mutual_information(joint) -> float:
    """H(A) + H(B) - H(A, B) of a joint probability matrix p[a, b]."""
    w = np.asarray(joint, dtype=float)
    return entropy_bits(w.sum(axis=1)) + entropy_bits(w.sum(axis=0)) - entropy_bits(w)


def loop_partial_trace(matrix, dims, keep: str) -> np.ndarray:
    d_a, d_b = dims
    m = np.asarray(matrix, dtype=complex)
    if keep == "A":
        out = np.zeros((d_a, d_a), dtype=complex)
        for i in range(d_a):
            for j in range(d_a):
                for b in range(d_b):
                    out[i, j] += m[i * d_b + b, j * d_b + b]
    else:
        out = np.zeros((d_b, d_b), dtype=complex)
        for i in range(d_b):
            for j in range(d_b):
                for a in range(d_a):
                    out[i, j] += m[a * d_b + i, a * d_b + j]
    return out


def _bloch_bases(thetas, phis) -> np.ndarray:
    """All qubit measurement bases over the (theta, phi) grid, shape (N, 2, 2)."""
    t, p = np.meshgrid(thetas, phis, indexing="ij")
    t = t.ravel()
    p = p.ravel()
    u = np.empty((t.size, 2, 2), dtype=complex)
    c, s = np.cos(t / 2), np.sin(t / 2)
    phase = np.exp(-1j * p)
    u[:, 0, 0] = c
    u[:, 1, 0] = phase * s
    u[:, 0, 1] = -np.conj(phase) * s
    u[:, 1, 1] = c
    return u


def _d1_values(rho4, s_a, s_ab, bases) -> np.ndarray:
    blocks = np.einsum("nak,aibj,nbk->nkij", bases.conj(), rho4, bases)
    probs = np.einsum("nkii->nk", blocks).real
    spectra = np.linalg.eigvalsh(blocks)  # (N, 2, 2)
    safe_p = np.where(probs > CLIP, probs, 1.0)
    normalized = spectra / safe_p[:, :, None]
    terms = np.where(normalized > CLIP, -normalized * np.log2(np.maximum(normalized, CLIP)), 0.0)
    s_cond = np.einsum("nk,nki->n", np.where(probs > CLIP, probs, 0.0), terms)
    return s_a + s_cond - s_ab


def grid_d1_oracle(rho, n_theta: int = 200, n_phi: int = 400, zoom_rounds: int = 4) -> float:
    """Two-qubit discord minimum by dense-grid search over all rank-1 projective
    measurements on A, refined by zooming grids around the best point."""
    rho = np.asarray(rho, dtype=complex)
    rho4 = rho.reshape(2, 2, 2, 2)
    s_a = state_entropy(loop_partial_trace(rho, (2, 2), "A"))
    s_ab = state_entropy(rho)

    thetas = np.linspace(0.0, np.pi, n_theta + 1)
    phis = np.linspace(0.0, 2 * np.pi, n_phi, endpoint=False)
    values = _d1_values(rho4, s_a, s_ab, _bloch_bases(thetas, phis))
    index = int(np.argmin(values))
    best_theta = thetas[index // n_phi]
    best_phi = phis[index % n_phi]
    best = float(values[index])

    theta_step = np.pi / n_theta
    phi_step = 2 * np.pi / n_phi
    for _ in range(zoom_rounds):
        thetas = np.linspace(best_theta - theta_step, best_theta + theta_step, 21)
        phis = np.linspace(best_phi - phi_step, best_phi + phi_step, 21)
        values = _d1_values(rho4, s_a, s_ab, _bloch_bases(thetas, phis))
        index = int(np.argmin(values))
        best_theta = thetas[index // 21]
        best_phi = phis[index % 21]
        best = float(values[index])
        theta_step /= 10
        phi_step /= 10
    return best


def haar_bases(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    """n Haar-random d x d unitaries (QR of complex Ginibre matrices with the
    phases of R's diagonal moved into Q), shape (n, d, d)."""
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def measured_values(rho, dims, side: str, measure: str, bases) -> np.ndarray:
    """D1 or D2 of rho at each measurement basis (columns) on ``side``.

    D2 is the entropy of the post-measurement state minus S(rho_AB), and D1
    replaces the outcome entropy H(p) in it by S(rho_side).
    """
    d_a, d_b = dims
    rho = np.asarray(rho, dtype=complex)
    rho4 = rho.reshape(d_a, d_b, d_a, d_b)
    if side == "A":
        blocks = np.einsum("nak,aibj,nbk->nkij", bases.conj(), rho4, bases)
    else:
        blocks = np.einsum("nik,aibj,njk->nkab", bases.conj(), rho4, bases)
    probs = np.einsum("nkii->nk", blocks).real
    spectra = np.linalg.eigvalsh(blocks).reshape(len(bases), -1)

    def eta_sums(values):
        return np.where(values > CLIP, -values * np.log2(np.maximum(values, CLIP)), 0.0).sum(axis=1)

    s_ab = state_entropy(rho)
    s_post = eta_sums(spectra)
    if measure == "D2":
        return s_post - s_ab
    s_side = state_entropy(loop_partial_trace(rho, dims, side))
    return s_side + s_post - eta_sums(probs) - s_ab


def random_basis_bound(rho, dims, side: str, measure: str, n: int = 4096, seed: int = 0) -> float:
    """Smallest D1 or D2 over n Haar-random bases: an upper bound on the minimum."""
    d = dims[0] if side == "A" else dims[1]
    bases = haar_bases(n, d, np.random.default_rng(seed))
    return float(np.min(measured_values(rho, dims, side, measure, bases)))
