import numpy as np
import pytest
from scipy.optimize import minimize

from discordant import (
    InvalidParameters,
    ProjectiveMeasurement,
    post_measurement_state,
    von_neumann_entropy,
)
from discordant.measurement import (
    _dephase,
    _givens,
    _parameters_for_basis,
    basis_from_parameters,
    conditional_blocks,
)
from discordant.states import bell_mixture, example_state, random_state, zero_discord_state

from oracles import state_entropy

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
H2_34 = 0.8112781244591328  # binary_entropy(0.75)

PLUS = np.array([1.0, 1.0]) / np.sqrt(2)
X_BASIS = np.column_stack([PLUS, np.array([-1.0, 1.0]) / np.sqrt(2)])


def conditional_state(state, m, outcome):
    """(p, conditional state of the other side) for one outcome with p > 0."""
    block = conditional_blocks(state.rho, state.dims, m.basis, m.subsystem)[outcome]
    p = float(np.trace(block).real)
    return p, block / p


def random_unitary(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestProjectiveMeasurement:
    @pytest.mark.parametrize("basis, fragment", [
        (np.array([[1.0, 0.0], [0.0, 0.5]]), "does not resolve the identity"),
        (np.ones((2, 3)), "square and nonempty"),
        (np.zeros((0, 0)), "square and nonempty"),
    ], ids=["not_orthonormal", "not_square", "empty"])
    def test_rejects_an_incomplete_basis(self, basis, fragment):
        with pytest.raises(InvalidParameters, match=fragment):
            ProjectiveMeasurement("A", basis)


class TestChart:
    def test_zero_parameters_is_computational(self):
        m = ProjectiveMeasurement("A", basis_from_parameters(np.zeros(2), 2))
        np.testing.assert_allclose(m.basis, np.eye(2), atol=1e-14)

    def test_half_pi_is_x_basis(self):
        m = ProjectiveMeasurement("A", basis_from_parameters([np.pi / 2, 0.0], 2))
        expected = [np.outer(v, v.conj()) for v in X_BASIS.T]
        for got, want in zip(m.projectors, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_random_parameters_give_valid_measurements(self):
        rng = np.random.default_rng(17)
        for d in (2, 3, 4):
            for _ in range(20):
                basis = basis_from_parameters(rng.uniform(-np.pi, np.pi, d * (d - 1)), d)
                m = ProjectiveMeasurement("A", basis)
                projectors = m.projectors
                total = sum(projectors)
                np.testing.assert_allclose(total, np.eye(d), atol=1e-10)
                for i, p in enumerate(projectors):
                    assert abs(np.trace(p) - 1.0) <= 1e-10
                    for j, q in enumerate(projectors):
                        expected = p if i == j else np.zeros((d, d))
                        np.testing.assert_allclose(p @ q, expected, atol=1e-10)

    def test_chart_equals_product_from_identity(self):
        rng = np.random.default_rng(23)
        cases = [(d, rng.uniform(-np.pi, np.pi, d * (d - 1))) for d in (1, 2, 3, 4)]
        # Zero phases give -0.0 entries in a lone rotation.
        cases += [(2, np.array([np.pi, 0.0])), (3, np.array([np.pi, 0.0, 0.0, 0.0, np.pi / 2, 0.0]))]
        for d, params in cases:
            expected = np.eye(d, dtype=complex)
            k = 0
            for p in range(d):
                for q in range(p + 1, d):
                    expected = expected @ _givens(d, p, q, params[k], params[k + 1])
                    k += 2
            # Bytes, not ==, so that signed zeros must match as well.
            assert basis_from_parameters(params, d).tobytes() == expected.tobytes()

    def test_parameter_count(self):
        with pytest.raises(InvalidParameters, match="need 2 angles"):
            basis_from_parameters(np.zeros(3), 2)

    def test_parameters_for_basis_roundtrip(self):
        rng = np.random.default_rng(23)
        for d in (2, 3, 4):
            for _ in range(25):
                target = random_unitary(rng, d)
                rebuilt = basis_from_parameters(_parameters_for_basis(target), d)
                for k in range(d):
                    got = np.outer(rebuilt[:, k], rebuilt[:, k].conj())
                    want = np.outer(target[:, k], target[:, k].conj())
                    np.testing.assert_allclose(got, want, atol=1e-10)

    def test_surjectivity_reaches_state_entropy(self):
        # Minimizing measured Shannon entropy over the chart must reach S(rho).
        rng = np.random.default_rng(29)
        for d in (2, 3):
            for trial in range(3):
                rho = random_state((d, 1), seed=100 * d + trial).rho
                target = state_entropy(rho)

                def objective(params):
                    u = basis_from_parameters(params, d)
                    probs = np.einsum("ak,ab,bk->k", u.conj(), rho, u).real
                    probs = probs[probs > 1e-12]
                    return float(-np.sum(probs * np.log2(probs)))

                best = np.inf
                for _ in range(15):
                    x0 = rng.uniform(0, np.pi, d * (d - 1))
                    result = minimize(
                        objective, x0, method="Nelder-Mead",
                        options=dict(fatol=1e-10, xatol=1e-7, maxfev=4000),
                    )
                    best = min(best, result.fun)
                assert best == pytest.approx(target, abs=1e-6)


class TestConditionalState:
    def test_example_state_z_outcomes(self):
        state = example_state(0.5, 0.5)
        m = ProjectiveMeasurement("A", np.eye(2))
        for outcome, expected_p in ((0, 0.75), (1, 0.25)):
            p, cond = conditional_state(state, m, outcome)
            assert p == pytest.approx(expected_p, abs=1e-12)
            np.testing.assert_allclose(cond, np.eye(2) / 2, atol=1e-12)

    def test_example_state_x_outcomes(self):
        state = example_state(0.5, 0.5)
        m = ProjectiveMeasurement("A", X_BASIS)
        for outcome, sign in ((0, +1), (1, -1)):
            p, cond = conditional_state(state, m, outcome)
            assert p == pytest.approx(0.5, abs=1e-12)
            np.testing.assert_allclose(cond, (np.eye(2) + sign * 0.5 * SIGMA_X) / 2, atol=1e-12)

    def test_product_state_is_unaffected(self):
        rho_b = random_state((2, 1), seed=8).rho
        state = zero_discord_state([1.0], np.eye(2)[:1], [rho_b])
        m = ProjectiveMeasurement("A", X_BASIS)
        for outcome in (0, 1):
            _, cond = conditional_state(state, m, outcome)
            np.testing.assert_allclose(cond, rho_b, atol=1e-12)


class TestPostMeasurementState:
    def test_zero_discord_fixed_point(self):
        sigmas = [random_state((2, 1), seed=s).rho for s in (31, 32)]
        state = zero_discord_state([0.25, 0.75], np.eye(2), sigmas)
        after = post_measurement_state(state, ProjectiveMeasurement("A", np.eye(2)))
        np.testing.assert_allclose(after.rho, state.rho, atol=1e-12)

    def test_bell_state_any_measurement_gives_one_bit(self):
        bell = bell_mixture(1.0)
        rng = np.random.default_rng(37)
        for _ in range(5):
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            after = post_measurement_state(bell, m)
            assert von_neumann_entropy(after.rho) == pytest.approx(1.0, abs=1e-10)

    def test_example_state_x_measurement_entropy(self):
        state = example_state(0.5, 0.5)
        after = post_measurement_state(state, ProjectiveMeasurement("A", X_BASIS))
        assert von_neumann_entropy(after.rho) == pytest.approx(1.0 + H2_34, abs=1e-12)

    def test_marginal_preservation(self):
        rng = np.random.default_rng(41)
        for trial in range(20):
            state = random_state((2, 3), rank=int(rng.integers(1, 7)), seed=500 + trial)
            for side, kept in (("A", "B"), ("B", "A")):
                d = state.dims[0] if side == "A" else state.dims[1]
                basis = basis_from_parameters(rng.uniform(0, np.pi, d * (d - 1)), d)
                m = ProjectiveMeasurement(side, basis)
                after = post_measurement_state(state, m)
                np.testing.assert_allclose(
                    after.marginal(kept), state.marginal(kept), atol=1e-10
                )

    def test_entropy_decomposition(self):
        # S(rho') splits into the outcome entropy plus the conditional entropy.
        rng = np.random.default_rng(43)
        for trial in range(20):
            state = random_state((2, 2), rank=int(rng.integers(1, 5)), seed=900 + trial)
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            blocks = conditional_blocks(state.rho, state.dims, m.basis, m.subsystem)
            probs = [float(np.trace(block).real) for block in blocks]
            conditional = sum(
                p * state_entropy(block / p) for p, block in zip(probs, blocks) if p > 1e-12
            )
            outcome_entropy = float(-sum(p * np.log2(p) for p in probs if p > 1e-12))
            post_entropy = von_neumann_entropy(post_measurement_state(state, m).rho)
            assert post_entropy == pytest.approx(outcome_entropy + conditional, abs=1e-9)


class TestDephase:
    def test_diagonal_unchanged(self):
        rho = np.diag([0.2, 0.3, 0.5]).astype(complex)
        np.testing.assert_allclose(_dephase(rho, np.eye(3)), rho, atol=1e-14)

    def test_plus_state_to_maximally_mixed(self):
        plus = np.outer(PLUS, PLUS)
        np.testing.assert_allclose(_dephase(plus, np.eye(2)), np.eye(2) / 2, atol=1e-14)

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(47)
        rho = random_state((2, 2), seed=53).rho
        z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        basis, _ = np.linalg.qr(z)
        once = _dephase(rho, basis)
        twice = _dephase(once, basis)
        np.testing.assert_allclose(twice, once, atol=1e-12)
        assert np.trace(once).real == pytest.approx(1.0, abs=1e-12)
