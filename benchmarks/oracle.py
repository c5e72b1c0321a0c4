"""Independent reference values for the benchmark's output checks.

Nothing here imports ``discordant``. States are rebuilt from the family
formulas, partial traces are index loops, entropies come straight from numpy
eigenvalues, and measurement searches are batched over many bases at once:

* qubit measured side: a (theta, phi) Bloch grid refined by zooming around
  its best local minima, for D1 and D2 (and for the restricted D3 search,
  which is the same grid inside one degenerate eigenplane);
* larger measured sides: the best of many Haar-random bases, an upper bound
  that a converged search may not exceed;
* closed forms: 1 - H2(a) for the Bell mixture, D3 at a numpy eigenbasis of
  the measured marginal, and D3sym from both marginal eigenbases.

Run ``python3 benchmarks/oracle.py`` for the self-check.
"""

from __future__ import annotations

import numpy as np

CLIP = 1e-12
# Bloch-grid search: a coarse GRID_THETA x GRID_PHI grid, then ZOOM_ROUNDS
# zoomed 21 x 21 grids around each of its best ZOOM_BASINS local minima.
GRID_THETA = 40
GRID_PHI = 80
ZOOM_ROUNDS = 5
ZOOM_BASINS = 6
RANDOM_BASES = 4096  # Haar-random bases behind a qudit upper bound

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def entropy_bits(values) -> float:
    v = np.asarray(values, dtype=float).ravel()
    v = v[v > CLIP]
    return float(-np.sum(v * np.log2(v))) if v.size else 0.0


def h2(p: float) -> float:
    return entropy_bits([p, 1.0 - p])


def state_entropy(rho) -> float:
    return entropy_bits(np.linalg.eigvalsh(rho))


def partial_trace(rho, dims, keep: str) -> np.ndarray:
    d_a, d_b = dims
    kept = d_a if keep == "A" else d_b
    out = np.zeros((kept, kept), dtype=complex)
    for i in range(kept):
        for j in range(kept):
            if keep == "A":
                out[i, j] = sum(rho[i * d_b + k, j * d_b + k] for k in range(d_b))
            else:
                out[i, j] = sum(rho[k * d_b + i, k * d_b + j] for k in range(d_a))
    return out


def entropies(rho, dims) -> dict:
    s_a = state_entropy(partial_trace(rho, dims, "A"))
    s_b = state_entropy(partial_trace(rho, dims, "B"))
    s_ab = state_entropy(rho)
    return {"s_a": s_a, "s_b": s_b, "s_ab": s_ab, "mutual": s_a + s_b - s_ab}


# --- states from the family formulas ---------------------------------------

def example_state(b: float, c: float) -> np.ndarray:
    return 0.25 * (np.eye(4) + b * np.kron(SZ, np.eye(2)) + c * np.kron(SX, SX))


def bell_mixture(a: float) -> np.ndarray:
    plus = np.array([0, 1, 1, 0], dtype=complex) / np.sqrt(2)
    minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
    return a * np.outer(plus, plus) + (1 - a) * np.outer(minus, minus)


def ginibre_state(dims, rank=None, seed: int = 0) -> np.ndarray:
    """The seeded Ginibre recipe of the ``random`` family: G G^dagger / tr."""
    dim = dims[0] * dims[1]
    rank = dim if rank is None else rank
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def teahouse_vectors() -> np.ndarray:
    e = np.eye(3)
    s = 1 / np.sqrt(2)
    pairs = [
        (e[1], e[1]), (e[0], s * (e[0] + e[1])), (e[0], s * (e[0] - e[1])),
        (e[2], s * (e[1] + e[2])), (e[2], s * (e[1] - e[2])),
        (s * (e[1] + e[2]), e[0]), (s * (e[1] - e[2]), e[0]),
        (s * (e[0] + e[1]), e[2]), (s * (e[0] - e[1]), e[2]),
    ]
    return np.array([np.kron(x, y) for x, y in pairs], dtype=complex)


def teahouse_state(weights) -> np.ndarray:
    v = teahouse_vectors()
    return sum(w * np.outer(x, x.conj()) for w, x in zip(weights, v))


def family_state(name: str, parameters: dict) -> np.ndarray:
    if name == "example_state":
        return example_state(parameters["b"], parameters["c"])
    if name == "bell_mixture":
        return bell_mixture(parameters["a"])
    if name == "random":
        return ginibre_state(parameters["dims"], parameters.get("rank"), parameters.get("seed", 0))
    raise KeyError(f"no family formula for {name!r}")


# --- measured entropies, batched over bases ---------------------------------

def measured_profile(rho, dims, side: str, bases):
    """For bases of shape (N, d, d) on ``side`` (columns are the measured
    vectors): outcome entropy H and conditional entropy sum_k p_k S(rho_k)."""
    d_a, d_b = dims
    r4 = np.asarray(rho).reshape(d_a, d_b, d_a, d_b)
    if side == "A":
        blocks = np.einsum("nak,aibj,nbk->nkij", bases.conj(), r4, bases)
    else:
        blocks = np.einsum("nik,aicj,njk->nkac", bases.conj(), r4, bases)
    probs = np.einsum("nkii->nk", blocks).real
    spectra = np.linalg.eigvalsh(blocks)
    safe = np.where(probs > CLIP, probs, 1.0)
    q = spectra / safe[:, :, None]
    terms = np.where(q > CLIP, -q * np.log2(np.maximum(q, CLIP)), 0.0).sum(axis=2)
    s_cond = np.sum(np.where(probs > CLIP, probs, 0.0) * terms, axis=1)
    h = np.sum(np.where(probs > CLIP, -probs * np.log2(np.maximum(probs, CLIP)), 0.0), axis=1)
    return h, s_cond


def measured_values(rho, dims, side: str, measure: str, bases) -> np.ndarray:
    """D1 or D2 at each basis."""
    ent = entropies(rho, dims)
    h, s_cond = measured_profile(rho, dims, side, bases)
    if measure == "D1":
        return ent["s_a" if side == "A" else "s_b"] + s_cond - ent["s_ab"]
    return h + s_cond - ent["s_ab"]


def value_at(rho, dims, side: str, measure: str, basis) -> float:
    return float(measured_values(rho, dims, side, measure, np.asarray(basis)[None])[0])


def _plane_bases(d, plane, thetas, phis) -> np.ndarray:
    """A qubit rotation embedded in index plane (p, q) of C^d, for every
    (theta, phi) pair of the grid."""
    t, f = np.meshgrid(thetas, phis, indexing="ij")
    t, f = t.ravel(), f.ravel()
    p, q = plane
    rot = np.tile(np.eye(d, dtype=complex), (t.size, 1, 1))
    c, s = np.cos(t / 2), np.sin(t / 2)
    rot[:, p, p] = c
    rot[:, q, p] = np.exp(1j * f) * s
    rot[:, p, q] = -np.exp(-1j * f) * s
    rot[:, q, q] = c
    return rot


def _coarse_minima(grid: np.ndarray, limit: int) -> list[tuple[int, int]]:
    """Grid cells no higher than their eight neighbours (phi wraps around),
    best first; each pole row counts once, since all its cells are one basis."""
    padded = np.pad(grid, ((1, 1), (0, 0)), constant_values=np.inf)
    neighbours = np.full(grid.shape, np.inf)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            if di or dj:
                shifted = np.roll(padded, -dj, axis=1)[1 + di: 1 + di + grid.shape[0]]
                neighbours = np.minimum(neighbours, shifted)
    cells = [(grid[i, j], i, j) for i, j in zip(*np.nonzero(grid <= neighbours))]
    cells.sort()
    chosen, poles = [], set()
    for _, i, j in cells:
        if i in (0, grid.shape[0] - 1):
            if i in poles:
                continue
            poles.add(i)
        chosen.append((int(i), int(j)))
    return chosen[:limit]


def plane_grid_min(rho, dims, side: str, measure: str, plane=(0, 1)) -> float:
    """Minimum of D1 or D2 over the bases that rotate the computational basis
    inside one index plane: a coarse (theta, phi) grid, then, around each of
    its best local minima (two basins can be within 1e-4 of each other),
    zoomed grids, each ten times finer. On a qubit measured side this covers
    every rank-1 projective measurement; on a larger side it is the search
    inside one plane of a marginal that is diagonal in the computational
    basis."""
    d = dims[0] if side == "A" else dims[1]
    thetas = np.linspace(0.0, np.pi, GRID_THETA + 1)
    phis = np.linspace(0.0, 2 * np.pi, GRID_PHI, endpoint=False)
    coarse = measured_values(rho, dims, side, measure, _plane_bases(d, plane, thetas, phis))
    best = float(np.min(coarse))
    for i, j in _coarse_minima(coarse.reshape(thetas.size, phis.size), ZOOM_BASINS):
        t0, f0 = thetas[i], phis[j]
        step_t, step_f = thetas[1] - thetas[0], phis[1] - phis[0]
        if i in (0, GRID_THETA):
            # A pole fixes no phi: search its whole cap before zooming.
            cap = np.linspace(0.0, step_t, 11) if i == 0 else np.linspace(np.pi - step_t, np.pi, 11)
            values = measured_values(rho, dims, side, measure, _plane_bases(d, plane, cap, phis))
            k = int(np.argmin(values))
            best = min(best, float(values[k]))
            t0, f0 = cap[k // phis.size], phis[k % phis.size]
            step_t /= 10
        for _ in range(ZOOM_ROUNDS):
            zoom_t = np.linspace(t0 - step_t, t0 + step_t, 21)
            zoom_f = np.linspace(f0 - step_f, f0 + step_f, 21)
            values = measured_values(rho, dims, side, measure, _plane_bases(d, plane, zoom_t, zoom_f))
            k = int(np.argmin(values))
            best = min(best, float(values[k]))
            t0, f0 = zoom_t[k // zoom_f.size], zoom_f[k % zoom_f.size]
            step_t, step_f = step_t / 10, step_f / 10
    return best


def haar_bases(n: int, d: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=1, axis2=2)
    return q * (diag / np.abs(diag))[:, None, :]


def random_basis_bound(rho, dims, side: str, measure: str, seed: int = 0) -> float:
    """Best D1 or D2 over RANDOM_BASES Haar-random bases: an upper bound on
    the minimum."""
    d = dims[0] if side == "A" else dims[1]
    bases = haar_bases(RANDOM_BASES, d, np.random.default_rng(seed))
    return float(np.min(measured_values(rho, dims, side, measure, bases)))


def eigenbasis(rho, dims, side: str) -> np.ndarray:
    return np.linalg.eigh(partial_trace(rho, dims, side))[1]


def d3_at_eigenbasis(rho, dims, side: str = "A") -> float:
    """D1 functional at numpy's eigenbasis of the measured marginal."""
    return value_at(rho, dims, side, "D1", eigenbasis(rho, dims, side))


def d3_symmetric(rho, dims) -> float:
    """Mutual information lost by dephasing in both marginal eigenbases."""
    u = np.kron(eigenbasis(rho, dims, "A"), eigenbasis(rho, dims, "B"))
    diagonal = np.einsum("ik,ij,jk->k", u.conj(), rho, u).real
    dephased = (u * diagonal) @ u.conj().T
    return entropies(rho, dims)["mutual"] - entropies(dephased, dims)["mutual"]


def bell_mixture_discord(a: float) -> float:
    return 1.0 - h2(a)


def self_check() -> list[str]:
    """Problems found in the oracle itself; empty when it agrees with the
    closed forms."""
    problems = []
    rho = example_state(0.5, 0.5)
    closed = 2 * h2(0.75) - state_entropy(rho)
    grid = plane_grid_min(rho, (2, 2), "A", "D1")
    if abs(closed - 0.0216802) > 1e-6:
        problems.append(f"example_state(0.5, 0.5) closed-form D1 {closed!r} is not 0.0216802")
    if abs(grid - closed) > 1e-6:
        problems.append(f"grid D1 {grid!r} disagrees with closed form {closed!r}")
    for a in (0.1, 0.25, 0.5):
        grid = plane_grid_min(bell_mixture(a), (2, 2), "A", "D1")
        if abs(grid - bell_mixture_discord(a)) > 1e-6:
            problems.append(f"bell_mixture({a}) grid D1 {grid!r} vs 1 - H2(a)")
    return problems


if __name__ == "__main__":
    found = self_check()
    print("\n".join(found) if found else "oracle self-check passed")
    raise SystemExit(1 if found else 0)
