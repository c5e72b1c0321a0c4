import numpy as np
import pytest

from discordant import (
    BipartiteState,
    InvalidParameters,
    PureStateEnsemble,
    bell_mixture,
    classical_classical_state,
    commutator_norm,
    example_state,
    random_state,
    teahouse_ensemble,
    teahouse_vectors,
    zero_discord_state,
)


class TestBipartiteState:
    def test_validation_rejects_bad_trace(self):
        with pytest.raises(InvalidParameters, match="differs from 1"):
            BipartiteState((2, 2), np.eye(4))

    def test_validation_rejects_negative(self):
        with pytest.raises(InvalidParameters, match="eigenvalue .* below"):
            BipartiteState((2, 2), np.diag([0.75, 0.75, -0.25, -0.25]))

    @pytest.mark.parametrize("dims, fragment", [
        ((2.5, 2), "d_A must be an integer"), ((True, 4), "d_A must be an integer"),
        ((2, np.True_), "d_B must be an integer"), ((2, 2, 1), "two entries"), ((4,), "two entries"),
        ({"a": 1}, "two entries"), ((0, 4), "must be positive"),
    ])
    def test_dims_must_be_two_positive_integers(self, dims, fragment):
        with pytest.raises(InvalidParameters, match=fragment):
            BipartiteState(dims, np.eye(4) / 4)
        with pytest.raises(InvalidParameters, match=fragment):
            PureStateEnsemble(dims, [1.0], [[1.0, 0.0, 0.0, 0.0]])

    def test_integral_float_dims_accepted(self):
        assert BipartiteState((2.0, np.int64(2)), np.eye(4) / 4).dims == (2, 2)

    def test_immutable(self):
        state = example_state(0.3, 0.2)
        with pytest.raises(ValueError):
            state.rho[0, 0] = 9.0


class TestExampleState:
    def test_b_c_zero_is_maximally_mixed(self):
        np.testing.assert_allclose(example_state(0, 0).rho, np.eye(4) / 4)

    def test_b_one_block_form(self):
        np.testing.assert_allclose(
            example_state(1, 0).rho, np.diag([0.5, 0.5, 0.0, 0.0]), atol=1e-14
        )

    def test_marginals(self):
        state = example_state(0.5, 0.5)
        np.testing.assert_allclose(state.marginal("A"), np.diag([0.75, 0.25]), atol=1e-14)
        np.testing.assert_allclose(state.marginal("B"), np.eye(2) / 2, atol=1e-14)

    def test_marginals_general(self):
        for b in (-0.8, -0.1, 0.3, 0.6):
            state = example_state(b, 0.4)
            np.testing.assert_allclose(
                state.marginal("A"), np.diag([(1 + b) / 2, (1 - b) / 2]), atol=1e-14
            )
            np.testing.assert_allclose(state.marginal("B"), np.eye(2) / 2, atol=1e-14)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameters):
            example_state(1.0, 0.5)


class TestBellMixture:
    def test_pure_bell(self):
        state = bell_mixture(1.0)
        assert state.purity() == pytest.approx(1.0, abs=1e-12)

    def test_equal_mixture_is_classical(self):
        expected = np.diag([0.0, 0.5, 0.5, 0.0])
        np.testing.assert_allclose(bell_mixture(0.5).rho, expected, atol=1e-14)

    def test_quarter_is_rank_two(self):
        spectrum = np.linalg.eigvalsh(bell_mixture(0.25).rho)
        assert np.sum(spectrum > 1e-12) == 2

    def test_out_of_range(self):
        with pytest.raises(InvalidParameters):
            bell_mixture(1.5)


class TestTeahouse:
    def test_gram_matrix_is_identity(self):
        vectors = teahouse_vectors()
        gram = vectors @ vectors.conj().T
        assert np.max(np.abs(gram - np.eye(9))) <= 1e-12

    def test_equal_weights_maximally_mixed(self):
        state = teahouse_ensemble().density_matrix()
        np.testing.assert_allclose(state.rho, np.eye(9) / 9, atol=1e-14)

    def test_doubled_weights_nonzero_commutator(self):
        weights = np.full(9, 1 / 11)
        weights[6] = weights[8] = 2 / 11  # psi7 and psi9 in the printed order
        state = teahouse_ensemble(weights).density_matrix()
        lifted = np.kron(state.marginal("A"), np.eye(3))
        assert commutator_norm(lifted, state.rho) > 1e-3

    def test_bad_weights(self):
        with pytest.raises(InvalidParameters, match="nonnegative and sum to 1"):
            teahouse_ensemble(np.full(9, 1.0))
        with pytest.raises(InvalidParameters, match="expected 9 weights"):
            teahouse_ensemble(np.full(4, 0.25))


class TestZeroDiscordState:
    def test_single_product(self):
        state = zero_discord_state(
            [1.0], np.eye(2)[:1], [np.diag([0.7, 0.3])]
        )
        np.testing.assert_allclose(
            state.rho, np.kron(np.diag([1.0, 0.0]), np.diag([0.7, 0.3])), atol=1e-14
        )

    def test_classically_correlated(self):
        state = zero_discord_state(
            [0.5, 0.5], np.eye(2), [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        np.testing.assert_allclose(state.rho, np.diag([0.5, 0.0, 0.0, 0.5]), atol=1e-14)

    def test_commutator_property(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sigmas = [random_state((2, 1), seed=rng.integers(1 << 30)).rho for _ in range(2)]
            state = zero_discord_state([0.3, 0.7], np.eye(2), sigmas)
            lifted = np.kron(state.marginal("A"), np.eye(2))
            assert commutator_norm(lifted, state.rho) <= 1e-10

    def test_non_orthogonal_basis(self):
        basis = np.array([[1.0, 0.0], [1 / np.sqrt(2), 1 / np.sqrt(2)]])
        with pytest.raises(InvalidParameters, match="not orthonormal"):
            zero_discord_state([0.5, 0.5], basis, [np.eye(2) / 2, np.eye(2) / 2])


class TestClassicalClassical:
    def test_uniform_is_maximally_mixed(self):
        state = classical_classical_state(np.full((2, 2), 0.25))
        np.testing.assert_allclose(state.rho, np.eye(4) / 4)

    def test_perfectly_correlated(self):
        state = classical_classical_state(np.diag([0.5, 0.5]))
        np.testing.assert_allclose(state.rho, np.diag([0.5, 0.0, 0.0, 0.5]))

    def test_bad_weights(self):
        with pytest.raises(InvalidParameters, match="nonnegative and sum to 1"):
            classical_classical_state(np.array([[0.5, -0.1], [0.3, 0.3]]))


class TestRandomState:
    def test_deterministic(self):
        first = random_state((2, 2), rank=4, seed=99)
        second = random_state((2, 2), rank=4, seed=99)
        np.testing.assert_array_equal(first.rho, second.rho)

    def test_rank_one_is_pure(self):
        assert random_state((2, 3), rank=1, seed=1).purity() == pytest.approx(1.0, abs=1e-10)

    def test_all_outputs_valid(self):
        for seed in range(10):
            state = random_state((2, 2), rank=1 + seed % 4, seed=seed)
            spectrum = np.linalg.eigvalsh(state.rho)
            assert spectrum[0] >= -1e-10
            assert abs(np.trace(state.rho).real - 1.0) <= 1e-10

    def test_bad_rank(self):
        with pytest.raises(InvalidParameters, match="rank must lie in"):
            random_state((2, 2), rank=5, seed=0)

    def test_non_integral_values_raise(self):
        with pytest.raises(InvalidParameters):
            random_state((2.5, 2))
        with pytest.raises(InvalidParameters, match="rank must be an integer"):
            random_state((2, 2), rank=2.5)
        with pytest.raises(InvalidParameters):
            random_state((2, 2), seed=1.5)

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"seed": float("nan")}, "seed must be an integer, got nan"),
        ({"rank": float("inf")}, "rank must be an integer, got inf"),
        ({"seed": None}, "seed must be an integer, got None"),
        ({"dims": ("a", 2)}, "d_A must be an integer, got 'a'"),
    ])
    def test_unconvertible_values_raise(self, kwargs, fragment):
        with pytest.raises(InvalidParameters, match=fragment):
            random_state(**{"dims": (2, 2), **kwargs})

    def test_malformed_dims_and_booleans_raise(self):
        for dims in ((2, 2, 5), {"a": 1}, {}):
            with pytest.raises(InvalidParameters, match="two entries"):
                random_state(dims)
        with pytest.raises(InvalidParameters):
            random_state((True, 2))
        with pytest.raises(InvalidParameters, match="rank must be an integer"):
            random_state((2, 2), rank=True)
        with pytest.raises(InvalidParameters):
            random_state((2, 2), seed=False)

    def test_size_cap(self):
        assert random_state((32, 32), rank=1).dims == (32, 32)
        with pytest.raises(InvalidParameters, match="exceeds the cap"):
            random_state((1025, 1))
