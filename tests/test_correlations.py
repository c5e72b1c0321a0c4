import warnings

import numpy as np
import pytest

from discordant import (
    BipartiteState,
    InvalidParameters,
    ProjectiveMeasurement,
    cerf_adami_conditional_entropy,
    cerf_adami_operator,
    conditional_entropy_after_measurement,
    discord_d1_at,
    information_function,
    mutual_information,
    one_way_purification_rate,
    optimize_discord,
    von_neumann_entropy,
)
from discordant.correlations import _measured_entropy, entropy_of_eigenvalues, state_entropies
from discordant.measurement import basis_from_parameters, conditional_blocks
from discordant.states import (
    bell_mixture,
    classical_classical_state,
    example_state,
    random_state,
    zero_discord_state,
)

from oracles import haar_bases, shannon_mutual_information, state_entropy

H2_QUARTER = 0.8112781244591328
S_AB_EXAMPLE = 1.600876036692856
X_BASIS = np.column_stack([[1, 1], [-1, 1]]) / np.sqrt(2)


def random_joint(rng, shape):
    w = rng.random(shape)
    return w / w.sum()


class TestStateEntropies:
    def test_spectra_and_entropies_of_the_marginals(self):
        state = random_state((3, 2), seed=4)
        e = state_entropies(state)
        for spectrum, matrix, entropy in (
            (e.spectrum_a, state.marginal("A"), e.s_a),
            (e.spectrum_b, state.marginal("B"), e.s_b),
            (e.spectrum_ab, state.rho, e.s_ab),
        ):
            assert np.array_equal(spectrum, np.linalg.eigvalsh(matrix))
            assert entropy == entropy_of_eigenvalues(spectrum)
        assert mutual_information(state) == e.s_a + e.s_b - e.s_ab


class TestShannon:
    def test_fair_coin(self):
        assert entropy_of_eigenvalues([0.5, 0.5]) == pytest.approx(1.0)

    def test_deterministic(self):
        assert entropy_of_eigenvalues([1.0, 0.0]) == 0.0

    def test_pure_spectrum_is_positive_zero(self):
        for value in (
            entropy_of_eigenvalues([1.0]),
            entropy_of_eigenvalues([1.0, 0.0]),
            von_neumann_entropy(np.diag([0.0, 1.0])),
        ):
            assert value == 0.0 and np.copysign(1.0, value) == 1.0

    def test_nonzero_entropy_is_the_negated_sum(self):
        rng = np.random.default_rng(8)
        for size in range(2, 9):
            v = rng.random(size)
            v /= v.sum()
            assert entropy_of_eigenvalues(v) == float(-np.sum(v * np.log2(v)))

    def test_conditional_entropy_weighted_average(self):
        # For a classical-classical state, measuring A in the computational
        # basis leaves B in the columns of w: S(B|A) = sum_a p_a H(w[a, :] / p_a).
        rng = np.random.default_rng(5)
        w = random_joint(rng, (2, 3))
        expected = 0.0
        for a in range(2):
            p_a = w[a, :].sum()
            expected += p_a * entropy_of_eigenvalues(w[a, :] / p_a)
        measured = conditional_entropy_after_measurement(
            classical_classical_state(w), ProjectiveMeasurement("A", np.eye(2))
        )
        assert measured == pytest.approx(expected, abs=1e-12)


class TestVonNeumann:
    def test_maximally_mixed_qubit(self):
        assert von_neumann_entropy(np.eye(2) / 2) == pytest.approx(1.0)

    def test_pure_state(self):
        assert von_neumann_entropy(np.diag([1.0, 0.0])) == pytest.approx(0.0, abs=1e-12)

    def test_binary_spectrum(self):
        assert von_neumann_entropy(np.diag([0.75, 0.25])) == pytest.approx(H2_QUARTER, abs=1e-14)

    def test_rejects_non_density(self):
        with pytest.raises(InvalidParameters, match="differs from 1"):
            von_neumann_entropy(np.eye(2))


class TestMutualInformation:
    def test_product_state(self):
        state = zero_discord_state([1.0], np.eye(2)[:1], [np.diag([0.6, 0.4])])
        assert mutual_information(state) == pytest.approx(0.0, abs=1e-12)

    def test_bell_state(self):
        assert mutual_information(bell_mixture(1.0)) == pytest.approx(2.0, abs=1e-10)

    def test_classical_classical_reduces_to_shannon(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            w = random_joint(rng, (2, 3))
            state = classical_classical_state(w)
            assert abs(mutual_information(state) - shannon_mutual_information(w)) <= 1e-10

    def test_nonnegativity_floors(self):
        for seed in range(20):
            state = random_state((2, 2), rank=1 + seed % 4, seed=4100 + seed)
            assert mutual_information(state) >= -1e-9
            assert information_function(state.rho) >= -1e-9


class TestConditionalEntropyAfterMeasurement:
    def test_example_state_z(self):
        state = example_state(0.5, 0.5)
        m = ProjectiveMeasurement("A", np.eye(2))
        assert conditional_entropy_after_measurement(state, m) == pytest.approx(1.0, abs=1e-12)

    def test_example_state_x(self):
        state = example_state(0.5, 0.5)
        m = ProjectiveMeasurement("A", X_BASIS)
        assert conditional_entropy_after_measurement(state, m) == pytest.approx(
            H2_QUARTER, abs=1e-12
        )

    def test_product_state_gives_marginal_entropy(self):
        rho_b = random_state((2, 1), seed=11).rho
        state = zero_discord_state([1.0], np.eye(2)[:1], [rho_b])
        rng = np.random.default_rng(13)
        for _ in range(5):
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            assert conditional_entropy_after_measurement(state, m) == pytest.approx(
                state_entropy(rho_b), abs=1e-10
            )


class TestCerfAdamiOperator:
    def test_product_state(self):
        rho_a = np.diag([0.7, 0.3])
        rho_b = np.diag([0.6, 0.4])
        state = zero_discord_state([0.7, 0.3], np.eye(2), [rho_b, rho_b])
        np.testing.assert_allclose(state.rho, np.kron(rho_a, rho_b), atol=1e-14)
        operator = cerf_adami_operator(state)
        np.testing.assert_allclose(operator, np.kron(np.eye(2), rho_b), atol=1e-9)

    def test_zero_discord_closed_form(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            sigmas = [random_state((2, 1), seed=rng.integers(1 << 30)).rho for _ in range(2)]
            weights = [0.2 + 0.1 * trial / 10, 0.8 - 0.1 * trial / 10]
            state = zero_discord_state(weights, np.eye(2), sigmas)
            expected = sum(
                np.kron(np.outer(np.eye(2)[a], np.eye(2)[a]), sigmas[a]) for a in range(2)
            )
            np.testing.assert_allclose(cerf_adami_operator(state), expected, atol=1e-9)

    def test_commuting_reduction_to_support_inverse(self):
        # When the lifted marginal commutes with the state, the operator equals
        # rho_AB times the support pseudo-inverse of rho_A x 1.
        sigmas = [random_state((2, 1), seed=s).rho for s in (19, 23)]
        state = zero_discord_state([0.4, 0.6], np.eye(2), sigmas)
        lifted = np.kron(state.marginal("A"), np.eye(2))
        inverse = np.linalg.pinv(lifted, hermitian=True)
        np.testing.assert_allclose(
            cerf_adami_operator(state), state.rho @ inverse, atol=1e-9
        )

    def test_random_full_rank_properties(self):
        state = random_state((2, 2), seed=29)
        operator = cerf_adami_operator(state)
        spectrum = np.linalg.eigvalsh(operator)
        assert spectrum[0] >= -1e-10
        assert abs(np.trace(operator).real - 1.0) > 1e-3  # generally not unit trace

class TestCerfAdamiConditionalEntropy:
    def test_bell_state_is_minus_one(self):
        assert cerf_adami_conditional_entropy(bell_mixture(1.0)) == pytest.approx(-1.0, abs=1e-9)

    def test_zero_discord_weighted_entropies(self):
        sigmas = [random_state((2, 1), seed=s).rho for s in (31, 37)]
        weights = [0.35, 0.65]
        state = zero_discord_state(weights, np.eye(2), sigmas)
        expected = sum(w * state_entropy(s) for w, s in zip(weights, sigmas))
        assert cerf_adami_conditional_entropy(state) == pytest.approx(expected, abs=1e-9)

    def test_product_state_gives_marginal_entropy(self):
        rho_b = random_state((2, 1), seed=41).rho
        state = zero_discord_state([1.0], np.eye(2)[:1], [rho_b])
        assert cerf_adami_conditional_entropy(state) == pytest.approx(
            state_entropy(rho_b), abs=1e-9
        )

    def test_equals_entropy_difference(self):
        for seed in range(5):
            state = random_state((2, 3), seed=43 + seed)
            expected = state_entropy(state.rho) - state_entropy(state.marginal("A"))
            assert cerf_adami_conditional_entropy(state) == pytest.approx(expected, abs=1e-9)

    def test_marginal_eigenvalues_below_the_clip(self):
        # 149 eigenvalues of rho_A = rho_AB sit below SUPPORT_CLIP; their total
        # weight, 1.341e-10, is dropped from both logarithms alike.
        rho = np.diag([1 - 149 * 9e-13] + [9e-13] * 149)
        state = BipartiteState((150, 1), rho)
        expected = state_entropy(state.rho) - state_entropy(state.marginal("A"))
        assert expected == 0.0
        assert cerf_adami_conditional_entropy(state) == pytest.approx(expected, abs=1e-12)

    def test_any_basis_identity(self):
        # S(rho_B|A) = S(B | measurement) - D1 at that measurement, in any basis:
        # qubit pairs at chart points, larger dimensions at Haar bases, and a
        # classical state whose A marginal diag(1, 0) has a null space.
        rng = np.random.default_rng(47)
        cases = [
            (random_state((2, 2), rank=int(rng.integers(1, 5)), seed=600 + trial),
             basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            for trial in range(10)
        ]
        for seed, dims in enumerate([(2, 3), (3, 2), (3, 3)]):
            state = random_state(dims, seed=610 + seed)
            cases += [(state, basis) for basis in haar_bases(3, dims[0], rng)]
        null_a = classical_classical_state(np.array([[0.5, 0.5], [0.0, 0.0]]))
        cases += [(null_a, basis) for basis in haar_bases(3, 2, rng)]
        for state, basis in cases:
            m = ProjectiveMeasurement("A", basis)
            left = cerf_adami_conditional_entropy(state)
            right = conditional_entropy_after_measurement(state, m) - discord_d1_at(state, m).value
            assert left == pytest.approx(right, abs=1e-9)


def conditional_entropy_one_outcome_at_a_time(blocks):
    """sum_k p_k S(rho_other | k) over one measurement's blocks, one outcome at a time."""
    total = 0.0
    for p, spectrum in zip(np.einsum("kii->k", blocks).real, np.linalg.eigvalsh(blocks)):
        if p > 1e-12:
            total += p * entropy_of_eigenvalues(spectrum / p)
    return total


class TestStackedKernel:
    """The stacked entropy kernel equals the one-row, one-outcome sums bit for bit."""

    def test_row_entropies_equal_entropy_of_eigenvalues_row_by_row(self):
        rng = np.random.default_rng(53)
        dropped = np.array([0.0, -0.0, 1e-12, 3e-13, -2e-16])
        for width in range(2, 13):
            rows = rng.dirichlet(np.ones(width), size=60)
            for row in rows[1:]:
                k = rng.integers(0, width)
                row[rng.choice(width, k, replace=False)] = rng.choice(dropped, k)
            rows[0] = 0.0
            if width >= 8:
                assert any(np.sum(row > 1e-12) >= 3 for row in rows)
            stacked = entropy_of_eigenvalues(rows.reshape(6, 10, width))
            assert stacked.shape == (6, 10)
            for row, value in zip(rows, stacked.ravel()):
                kept = row[row > 1e-12]
                expected = 0.0 - float(np.sum(kept * np.log2(kept)))
                for got in (value, entropy_of_eigenvalues(row)):
                    assert got == expected and np.signbit(got) == np.signbit(expected)

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_stacked_bases_equal_each_basis_alone(self, side):
        # rho_A = diag(1, 0) of the null_a state gives an outcome with p = 0 in
        # the computational basis; (2, 9) has rows of width 9 on both sides.
        rng = np.random.default_rng(59)
        null_a = classical_classical_state(np.array([[0.5, 0.5], [0.0, 0.0]]))
        states = [null_a, random_state((2, 3), seed=5), random_state((3, 2), rank=2, seed=6),
                  random_state((2, 9), seed=7)]
        for state in states:
            d = state.d_a if side == "A" else state.d_b
            bases = np.array([np.eye(d), *haar_bases(5, d, rng)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                probs, spectra, s_conditional = _measured_entropy(state, bases, side)
            assert s_conditional.shape == (len(bases),)
            for k, basis in enumerate(bases):
                blocks = conditional_blocks(state.rho, state.dims, basis, side)
                assert probs[k].tobytes() == np.einsum("kii->k", blocks).real.tobytes()
                assert spectra[k].tobytes() == np.linalg.eigvalsh(blocks).tobytes()
                expected = conditional_entropy_one_outcome_at_a_time(blocks)
                m = ProjectiveMeasurement(side, basis)
                assert s_conditional[k] == expected == conditional_entropy_after_measurement(state, m)


class TestInformationFunction:
    def test_pure_qubit(self):
        assert information_function(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        for d in (2, 3, 4):
            assert information_function(np.eye(d) / d) == pytest.approx(0.0, abs=1e-12)

    def test_example_state(self):
        assert information_function(example_state(0.5, 0.5).rho) == pytest.approx(
            2.0 - S_AB_EXAMPLE, abs=1e-12
        )


class TestPurificationRate:
    def test_zero_discord_at_eigenbasis_recovers_total(self):
        sigmas = [random_state((2, 1), seed=s).rho for s in (53, 59)]
        state = zero_discord_state([0.3, 0.7], np.eye(2), sigmas)
        rate = one_way_purification_rate(state, ProjectiveMeasurement("A", np.eye(2)))
        total = information_function(state.rho)
        assert rate == pytest.approx(total, abs=1e-9)

    def test_bell_state_any_measurement(self):
        bell = bell_mixture(1.0)
        rng = np.random.default_rng(61)
        for _ in range(5):
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            assert one_way_purification_rate(bell, m) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        rho_b = random_state((2, 1), seed=67).rho
        state = zero_discord_state([1.0], np.eye(2)[:1], [rho_b])
        m = ProjectiveMeasurement("A", np.eye(2))
        assert one_way_purification_rate(state, m) == pytest.approx(
            information_function(state.rho), abs=1e-9
        )

    def test_optimal_gap_is_discord(self):
        state = example_state(0.5, 0.5)
        report = optimize_discord("D1", state)
        total = information_function(state.rho)
        rate = one_way_purification_rate(state, report.optimal_measurement)
        assert total - rate == pytest.approx(report.value, abs=1e-9)
