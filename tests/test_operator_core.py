import numpy as np
import pytest
from scipy.linalg import expm

from discordant import (
    InvalidParameters,
    OptimizerConfig,
    ProjectiveMeasurement,
    classify_zero_discord,
    commutator_norm,
    discord_d3,
    eig,
    matrix_log_on_support,
    optimize_discord,
    partial_trace,
)
from discordant.correlations import information_function
from discordant.operator_core import require_hermitian
from discordant.states import (
    PureStateEnsemble, bell_mixture, bell_psi, classical_classical_state, example_state, random_state,
    teahouse_ensemble, zero_discord_state,
)

from oracles import loop_partial_trace

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)


def random_hermitian(rng, d):
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (g + g.conj().T) / 2


class TestEig:
    def test_diagonal(self):
        system = eig(np.diag([2.0, 1.0]))
        np.testing.assert_allclose(system.eigenvalues, [1.0, 2.0])

    def test_pauli_x_spectrum(self):
        system = eig(SIGMA_X)
        np.testing.assert_allclose(system.eigenvalues, [-1.0, 1.0], atol=1e-12)

    def test_example_marginal_spectrum(self):
        marginal = example_state(0.5, 0.5).marginal("A")
        np.testing.assert_allclose(eig(marginal).eigenvalues, [0.25, 0.75], atol=1e-12)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(11)
        for trial in range(1000):
            d = 2 + trial % 8
            h = random_hermitian(rng, d)
            system = eig(h)
            rebuilt = (system.eigenvectors * system.eigenvalues) @ system.eigenvectors.conj().T
            assert np.max(np.abs(rebuilt - h)) <= 1e-10
            gram = system.eigenvectors.conj().T @ system.eigenvectors
            assert np.max(np.abs(gram - np.eye(d))) <= 1e-10

    def test_deterministic_convention(self):
        h = np.diag([0.5, 0.5, 0.25]).astype(complex)
        first = eig(h)
        second = eig(h)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)
        assert first.degeneracy_groups == ((0,), (1, 2))
        assert first.is_degenerate

    def test_near_degenerate_chain_is_one_group(self):
        # Gaps of 6e-9 chain the three values into one group. Reordering the
        # columns inside it leaves 1/3 - 6e-9 ahead of 1/3 + 6e-9, a step up of
        # 1.2e-8, which must not split the group.
        system = eig(np.diag([1 / 3 + 6e-9, 1 / 3 - 6e-9, 1 / 3]))
        assert system.degeneracy_groups == ((0, 1, 2),)
        np.testing.assert_allclose(system.eigenvalues, [1 / 3, 1 / 3 - 6e-9, 1 / 3 + 6e-9], rtol=0, atol=1e-15)

    def test_phase_fixing(self):
        h = random_hermitian(np.random.default_rng(3), 4)
        vectors = eig(h).eigenvectors
        for k in range(4):
            pivot = vectors[np.flatnonzero(np.abs(vectors[:, k]) > 1e-8)[0], k]
            assert pivot.real > 0 and abs(pivot.imag) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(InvalidParameters, match="Hermiticity deviation"):
            eig(np.array([[0.0, 1.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_rejects_non_finite(self, entry):
        # A nan deviation passes a "> tol" test; the entry must be rejected first.
        m = np.diag([0.5, 0.5]).astype(complex)
        m[0, 1] = entry
        with pytest.raises(InvalidParameters, match="non-finite entries"):
            require_hermitian(m)
        m[1, 0] = np.conj(entry)
        with pytest.raises(InvalidParameters, match="non-finite entries"):
            eig(m)

    def test_example_state_rejects_non_finite_parameter(self):
        with pytest.raises(InvalidParameters, match="non-finite entries"):
            example_state(np.nan, 0.5)


class TestMatrixFunctions:
    def test_log_identity_is_zero(self):
        np.testing.assert_allclose(matrix_log_on_support(np.eye(3)), np.zeros((3, 3)), atol=1e-14)

    def test_log_maximally_mixed_qubit(self):
        np.testing.assert_allclose(
            matrix_log_on_support(np.diag([0.5, 0.5])), np.diag([-1.0, -1.0]), atol=1e-14
        )

    def test_log_support_convention(self):
        np.testing.assert_allclose(
            matrix_log_on_support(np.diag([1.0, 0.0])), np.zeros((2, 2)), atol=1e-14
        )

    def test_log_rejects_negative(self):
        with pytest.raises(InvalidParameters, match="eigenvalue .* below"):
            matrix_log_on_support(np.diag([1.0, -1e-6]))

    def test_exp_log_roundtrip_full_rank(self):
        # scipy's Pade exponential inverts the spectral log independently:
        # expm(ln 2 * log2 rho) = rho on full rank.
        rng = np.random.default_rng(5)
        for _ in range(25):
            d = rng.integers(2, 7)
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            rho = g @ g.conj().T + 0.1 * np.eye(d)
            rho /= np.trace(rho).real
            np.testing.assert_allclose(expm(np.log(2) * matrix_log_on_support(rho)), rho, atol=1e-9)


class TestTensorAndTrace:
    def test_tensor_pauli_pattern(self):
        # sigma_x x sigma_x is the antidiagonal coupling used by example_state.
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[1, 2] = expected[2, 1] = expected[3, 0] = 1.0
        np.testing.assert_allclose(np.kron(SIGMA_X, SIGMA_X), expected)
        coupling = example_state(0.0, 1.0).rho - np.eye(4) / 4
        np.testing.assert_allclose(np.kron(SIGMA_X, SIGMA_X) / 4, coupling, atol=1e-14)

    def test_bell_marginal_is_maximally_mixed(self):
        bell = np.outer(bell_psi(+1), bell_psi(+1).conj())
        np.testing.assert_allclose(partial_trace(bell, (2, 2), "A"), np.eye(2) / 2, atol=1e-12)

    def test_product_partial_trace(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            rho = random_state((2, 1), seed=rng.integers(1 << 30)).rho
            sigma = random_state((3, 1), seed=rng.integers(1 << 30)).rho
            joint = np.kron(rho, sigma)
            np.testing.assert_allclose(partial_trace(joint, (2, 3), "A"), rho, atol=1e-12)
            np.testing.assert_allclose(partial_trace(joint, (2, 3), "B"), sigma, atol=1e-12)

    def test_example_state_keep_b(self):
        np.testing.assert_allclose(
            partial_trace(example_state(0.5, 0.5).rho, (2, 2), "B"), np.eye(2) / 2, atol=1e-14
        )

    def test_matches_loop_oracle_and_preserves_trace(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
            h = random_hermitian(rng, dims[0] * dims[1])
            for keep in ("A", "B"):
                reduced = partial_trace(h, dims, keep)
                np.testing.assert_allclose(reduced, loop_partial_trace(h, dims, keep), atol=1e-12)
                assert abs(np.trace(reduced) - np.trace(h)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidParameters, match="incompatible with dims"):
            partial_trace(np.eye(5), (2, 2), "A")


class TestCommutatorNorm:
    def test_commuting_diagonals(self):
        assert commutator_norm(np.diag([1.0, 2.0]), np.diag([3.0, 4.0])) == 0.0

    def test_pauli_algebra(self):
        assert commutator_norm(SIGMA_Z, SIGMA_X) == pytest.approx(2.0)

    def test_example_state_value(self):
        # Direct 4x4 evaluation for b = c = 1/2 gives exactly b*c/4 = 1/16.
        state = example_state(0.5, 0.5)
        lifted = np.kron(state.marginal("A"), np.eye(2))
        assert commutator_norm(lifted, state.rho) == pytest.approx(1 / 16, abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidParameters, match="incompatible shapes"):
            commutator_norm(np.eye(2), np.eye(3))


@pytest.mark.parametrize("call", [
    lambda side: ProjectiveMeasurement(side, np.eye(2)),
    lambda side: partial_trace(np.eye(4) / 4, (2, 2), side),
    lambda side: optimize_discord("D1", bell_mixture(0.25), side, OptimizerConfig(restarts=1)),
    lambda side: discord_d3(bell_mixture(0.25), side),
    lambda side: classify_zero_discord(bell_mixture(0.25), side),
], ids=["measurement", "partial_trace", "optimize_discord", "discord_d3", "classify"])
def test_every_side_is_checked_alike(call):
    call("b")  # case-insensitive
    with pytest.raises(InvalidParameters):
        call("C")


NAN = float("nan")
EMPTY = np.zeros((0, 0))


# Each check must fail on nan, which passes every "x > tol" rejection, and on
# an empty matrix, which has no index for a degeneracy group or a maximum.
@pytest.mark.parametrize("call, fragment", [
    (lambda: ProjectiveMeasurement("A", [[NAN, 0], [0, 1]]), "does not resolve the identity"),
    (lambda: teahouse_ensemble([NAN] * 9), "nonnegative and sum to 1"),
    (lambda: PureStateEnsemble((1, 2), [1.0], [[NAN, 0]]), "unit norm"),
    (lambda: zero_discord_state([NAN, NAN], np.eye(2), [np.eye(2) / 2] * 2), "probability vector"),
    (lambda: classical_classical_state([[NAN, 0], [0, NAN]]), "nonnegative and sum to 1"),
    (lambda: require_hermitian(EMPTY), "nonempty square matrix"),
    (lambda: eig(EMPTY), "nonempty square matrix"),
    (lambda: information_function(EMPTY), "nonempty square matrix"),
    (lambda: commutator_norm(EMPTY, EMPTY), "incompatible shapes"),
    (lambda: partial_trace(np.eye(4), (2, 2, 1), "A"), "two entries"),
], ids=["nan_basis", "nan_ensemble_weights", "nan_vector", "nan_p", "nan_classical_weights",
        "empty_hermitian", "empty_eig", "empty_information", "empty_commutator", "three_dims_trace"])
def test_nan_and_empty_inputs_raise(call, fragment):
    with pytest.raises(InvalidParameters, match=fragment):
        call()
