from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from discordant import discord as discord_module
from discordant import (
    BipartiteState,
    InvalidParameters,
    OptimizerConfig,
    OptimizerDiagnostics,
    ProjectiveMeasurement,
    bell_mixture_discord_closed_form,
    classify_zero_discord,
    commutator_norm,
    discord_d1_at,
    discord_d2_at,
    discord_d3,
    discord_d3_symmetric,
    mutual_information,
    optimize_discord,
    post_measurement_state,
)
from discordant.measurement import basis_from_parameters, conditional_blocks
from discordant.states import (
    bell_mixture,
    classical_classical_state,
    example_state,
    random_state,
    teahouse_ensemble,
    zero_discord_state,
)

import oracles
from oracles import grid_d1_oracle, state_entropy

# Frozen reference values for example_state(0.5, 0.5), computed from the exact
# spectrum {(1 +- sqrt(1/2))/4, each twice} and the dense-grid measurement search.
H2_QUARTER = 0.8112781244591328
S_AB_EXAMPLE = 1.600876036692856
D1_EXAMPLE = 0.021680212225409612  # minimum, attained in the sigma_x eigenbasis
D2_EXAMPLE = 0.19956198165357186
D3_EXAMPLE = 0.21040208776627678
D1_AT_Z_EXAMPLE = H2_QUARTER + 1.0 - S_AB_EXAMPLE
BELL_QUARTER = 0.18872187554086717  # 1 - H2(1/4)

X_BASIS = np.column_stack([[1, 1], [-1, 1]]) / np.sqrt(2)
FAST = OptimizerConfig(restarts=6, seed=1)


def outcome_entropy(state, m):
    probs = [np.trace(b).real for b in conditional_blocks(state.rho, state.dims, m.basis, m.subsystem)]
    return float(-sum(p * np.log2(p) for p in probs if p > 1e-12))


def random_zero_discord(seed, degenerate=False, d_b=2):
    rng = np.random.default_rng(seed)
    if degenerate:
        p = np.array([0.5, 0.5])
    else:
        x = rng.uniform(0.15, 0.45)
        p = np.array([x, 1 - x])
    z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    basis, _ = np.linalg.qr(z)
    sigmas = [random_state((d_b, 1), seed=int(rng.integers(1 << 30))).rho for _ in range(2)]
    return zero_discord_state(p, basis.T, sigmas)


def recorded_searches(monkeypatch, run):
    """(objective, start) of every simplex that ``run()`` starts; each one
    stops at its start."""
    searches = []

    def first_points_only(objective, starts):
        searches.extend((objective, start) for start in starts)
        return [discord_module._SimplexResult(start, objective(start[None])[0], True, 1) for start in starts]

    with monkeypatch.context() as patched:
        patched.setattr(discord_module, "_lockstep", first_points_only)
        run()
    return searches


def run_alone(objective, start):
    """The simplex from ``start`` with no other simplex beside it."""
    return discord_module._lockstep(objective, [start])[0]


def one_point(objective):
    """The stacked ``objective`` as a function of one point."""
    return lambda x: objective(np.asarray(x)[None])[0]


class TestMeasurementFixedValues:
    def test_zero_discord_at_defining_basis(self):
        sigmas = [random_state((2, 1), seed=s).rho for s in (71, 73)]
        state = zero_discord_state([0.3, 0.7], np.eye(2), sigmas)
        assert discord_d1_at(state, ProjectiveMeasurement("A", np.eye(2))).value == pytest.approx(
            0.0, abs=1e-12
        )

    def test_example_state_at_z(self):
        state = example_state(0.5, 0.5)
        result = discord_d1_at(state, ProjectiveMeasurement("A", np.eye(2)))
        assert result.value == pytest.approx(D1_AT_Z_EXAMPLE, abs=1e-12)
        assert result.j_value == pytest.approx(0.0, abs=1e-12)

    def test_bell_state_any_basis_gives_one(self):
        bell = bell_mixture(1.0)
        rng = np.random.default_rng(79)
        for _ in range(5):
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            assert discord_d1_at(bell, m).value == pytest.approx(1.0, abs=1e-10)

    def test_d2_at_marginal_eigenbasis_equals_d1(self):
        for seed in range(5):
            state = random_state((2, 2), seed=800 + seed)
            basis = np.linalg.eigh(state.marginal("A"))[1]
            m = ProjectiveMeasurement("A", basis)
            assert discord_d2_at(state, m) == pytest.approx(
                discord_d1_at(state, m).value, abs=1e-10
            )

    def test_d2_at_x_example(self):
        state = example_state(0.5, 0.5)
        m = ProjectiveMeasurement("A", X_BASIS)
        assert discord_d2_at(state, m) == pytest.approx(
            1.0 + H2_QUARTER - S_AB_EXAMPLE, abs=1e-12
        )

    def test_d1_d2_relation_random(self):
        # D1 at a measurement differs from D2 there by the outcome-entropy excess.
        rng = np.random.default_rng(83)
        for trial in range(20):
            state = random_state((2, 2), rank=int(rng.integers(1, 5)), seed=1100 + trial)
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            s_a = state_entropy(state.marginal("A"))
            gap = outcome_entropy(state, m) - s_a
            assert discord_d1_at(state, m).value == pytest.approx(
                discord_d2_at(state, m) - gap, abs=1e-10
            )

    def test_j_identity(self):
        rng = np.random.default_rng(89)
        for trial in range(10):
            state = random_state((2, 3), rank=int(rng.integers(1, 7)), seed=1300 + trial)
            m = ProjectiveMeasurement("A", basis_from_parameters(rng.uniform(0, np.pi, 2), 2))
            j = discord_d1_at(state, m).j_value
            assert j == pytest.approx(
                mutual_information(post_measurement_state(state, m)), abs=1e-9
            )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        st.integers(1, 3), st.integers(1, 3), st.sampled_from(["A", "B"]), st.integers(0, 2**32 - 1),
    )
    def test_information_identities_at_haar_bases(self, d_a, d_b, side, seed):
        # D1 + J is the mutual information, and D2 exceeds D1 by the outcome
        # entropy's excess over S(rho_side), which is never negative.
        rng = np.random.default_rng(seed)
        dims = (d_a, d_b)
        state = random_state(dims, rank=int(rng.integers(1, d_a * d_b + 1)), seed=seed)
        basis = oracles.haar_bases(1, d_a if side == "A" else d_b, rng)[0]
        m = ProjectiveMeasurement(side, basis)
        d1 = discord_d1_at(state, m)
        marginals = {key: oracles.loop_partial_trace(state.rho, dims, key) for key in "AB"}
        entropies = {key: oracles.state_entropy(marginals[key]) for key in "AB"}
        information = entropies["A"] + entropies["B"] - oracles.state_entropy(state.rho)
        assert d1.value + d1.j_value == pytest.approx(information, abs=1e-12)
        outcome_probs = np.real(np.diag(basis.conj().T @ marginals[side] @ basis))
        excess = oracles.entropy_bits(outcome_probs) - entropies[side]
        gap = discord_d2_at(state, m) - d1.value
        assert gap == pytest.approx(excess, abs=1e-12)
        assert min(gap, excess) >= -1e-12


class TestOptimizer:
    def test_example_state_d1_matches_grid_oracle(self):
        state = example_state(0.5, 0.5)
        report = optimize_discord("D1", state)
        oracle = grid_d1_oracle(state.rho)
        assert report.value == pytest.approx(oracle, abs=1e-6)
        assert report.value == pytest.approx(D1_EXAMPLE, abs=1e-7)

    def test_example_state_d2(self):
        report = optimize_discord("D2", example_state(0.5, 0.5))
        assert report.value == pytest.approx(D2_EXAMPLE, abs=1e-7)

    def test_bell_mixture_matches_closed_form(self):
        report = optimize_discord("D1", bell_mixture(0.25))
        assert report.value == pytest.approx(BELL_QUARTER, abs=1e-7)

    def test_value_consistent_with_reported_measurement(self):
        for measure in ("D1", "D2"):
            report = optimize_discord(measure, example_state(0.5, 0.5), config=FAST)
            m = report.optimal_measurement
            if measure == "D1":
                again = discord_d1_at(example_state(0.5, 0.5), m).value
            else:
                again = discord_d2_at(example_state(0.5, 0.5), m)
            assert report.value == pytest.approx(again, abs=1e-8)
            # For both measures the reported value and J split I(A:B).
            information = mutual_information(example_state(0.5, 0.5))
            assert report.value + report.j_value == pytest.approx(information, abs=1e-12)

    def test_deterministic_given_config(self):
        state = random_state((2, 2), seed=97)
        first = optimize_discord("D1", state, config=OptimizerConfig(restarts=4, seed=7))
        second = optimize_discord("D1", state, config=OptimizerConfig(restarts=4, seed=7))
        assert first.value == second.value
        assert first.diagnostics.best_per_restart == second.diagnostics.best_per_restart

    @pytest.mark.parametrize("field, value", [
        ("restarts", 0), ("restarts", 2.5), ("restarts", float("inf")), ("restarts", float("nan")),
        ("restarts", True), ("seed", -1), ("seed", 1.5), ("seed", "1"), ("seed", None),
    ])
    def test_config_requires_integers_at_or_above_floor(self, field, value):
        with pytest.raises(InvalidParameters, match=f"^{field} must be "):
            OptimizerConfig(**{field: value})

    def test_config_accepts_numpy_integers(self):
        config = OptimizerConfig(restarts=np.int64(2), seed=np.uint32(7))
        assert (config.restarts, config.seed) == (2, 7)

    def test_side_b(self):
        # The example family is classically conditioned on B, so D1 on side B vanishes.
        report = optimize_discord("D1", example_state(0.5, 0.5), side="B", config=FAST)
        assert report.value == pytest.approx(0.0, abs=1e-9)

    def test_diagnostics_shape(self):
        report = optimize_discord("D1", example_state(0.5, 0.5), config=FAST)
        assert report.diagnostics.restarts_used == FAST.restarts + 1
        assert len(report.diagnostics.best_per_restart) == FAST.restarts + 1
        assert report.diagnostics.converged
        assert report.measure == "D1"

    def test_rejects_unknown_measure(self):
        with pytest.raises(InvalidParameters):
            optimize_discord("D3", example_state(0.5, 0.5))

    def test_one_dimensional_side_is_evaluated_once(self):
        state = BipartiteState((1, 2), np.diag([0.5, 0.5]))
        for measure in ("D1", "D2"):
            report = optimize_discord(measure, state, config=FAST)
            assert report.value == pytest.approx(0.0, abs=1e-12)
            assert report.diagnostics.converged
            assert report.diagnostics.function_evaluations == 1
            assert report.diagnostics.restarts_used == 1
            assert np.array_equal(report.optimal_measurement.basis, [[1.0]])

    @pytest.mark.parametrize("measure", ["D1", "D2"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (4, 2)])
    def test_search_objective_equals_entropy_profile_value(self, monkeypatch, measure, dims):
        # Capture the objective that optimize_discord hands to the simplices and
        # evaluate 50 points in one stacked call.
        state = random_state(dims, seed=41)
        config = OptimizerConfig(restarts=1)
        objective = recorded_searches(monkeypatch, lambda: optimize_discord(measure, state, config=config))[0][0]
        s_side, _, s_ab = discord_module._entropies(state, "A")
        rng = np.random.default_rng(dims[0])
        d = dims[0]
        stack = rng.uniform(0.0, 2 * np.pi, (50, d * (d - 1)))
        values = objective(stack)
        assert values.shape == (50,)
        for params, value in zip(stack, values):
            h, s_conditional, _ = discord_module._entropy_profile(
                state, basis_from_parameters(params, d), "A"
            )
            if measure == "D1":
                expected = s_conditional + (s_side - s_ab)
            else:
                expected = h + s_conditional + (-s_ab)
            assert value == expected


class TestD3:
    def test_example_state(self):
        report = discord_d3(example_state(0.5, 0.5))
        assert report.value == pytest.approx(D3_EXAMPLE, abs=1e-12)
        assert report.optimal_measurement is None
        assert not report.diagnostics.degenerate_marginal

    def test_zero_discord_state_vanishes(self):
        for seed in (5, 6, 7):
            state = random_zero_discord(seed)
            assert discord_d3(state).value == pytest.approx(0.0, abs=1e-9)

    def test_pure_state_equals_entanglement_entropy(self):
        for seed in range(5):
            state = random_state((2, 2), rank=1, seed=1500 + seed)
            expected = state_entropy(state.marginal("A"))
            assert discord_d3(state).value == pytest.approx(expected, abs=1e-9)

    def test_degenerate_marginal_brackets_value(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        minus = np.array([1, -1]) / np.sqrt(2)
        sigmas = [np.diag([0.8, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
        state = zero_discord_state([0.5, 0.5], np.array([plus, minus]), sigmas)
        report = discord_d3(state)
        assert report.diagnostics.degenerate_marginal
        # Convention basis differs from the defining basis, so the primary value
        # is positive while the infimum over diagonalizing bases vanishes.
        assert report.value > 0.01
        assert report.diagnostics.restricted_infimum == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_marginal_reports_the_restricted_search(self):
        state = bell_mixture(0.25)
        report = discord_d3(state)
        diagnostics = report.diagnostics
        assert diagnostics.degenerate_marginal
        # The default OptimizerConfig: the eigenbasis plus 20 seeded starts.
        assert diagnostics.restarts_used == 21
        assert len(diagnostics.best_per_restart) == 21
        assert diagnostics.function_evaluations > 0
        assert diagnostics.restricted_infimum <= report.value
        assert discord_d3(state).diagnostics == diagnostics

    @pytest.mark.parametrize("labels", [(0, 1, 2), (1, 2, 0), (2, 0, 1)])
    def test_restricted_infimum_is_invariant_under_relabelling(self, labels):
        # (1/3) sum_k |f_k><f_k| x sigma_k is classical in a real basis f,
        # plus diag(6e-9, -6e-9, 0) x I/2, so rho_A is the near-degenerate
        # chain 1/3 + (6e-9, -6e-9, 0) and the eigenbasis is far from f. Each
        # cyclic relabelling of A must search all three planes and reach D1 ~ 0.
        f = [np.array([1, 1, 1]) / np.sqrt(3), np.array([0, 1, -1]) / np.sqrt(2),
             np.array([-2, 1, 1]) / np.sqrt(6)]
        b = [np.array([1, 0]), np.array([0, 1]), np.array([1, 1]) / np.sqrt(2)]
        rho = sum(np.kron(np.outer(fk, fk), np.outer(bk, bk) / 2 + np.eye(2) / 4) for fk, bk in zip(f, b)) / 3
        rho = rho + np.kron(np.diag([6e-9, -6e-9, 0.0]), np.eye(2) / 2)
        relabel = np.kron(np.eye(3)[list(labels)], np.eye(2))
        report = discord_d3(BipartiteState((3, 2), relabel @ rho @ relabel.T))
        assert report.value > 0.1
        assert report.diagnostics.restricted_infimum == pytest.approx(0.0, abs=1e-9)

    def test_non_degenerate_marginal_keeps_fixed_basis_diagnostics(self):
        assert discord_d3(example_state(0.5, 0.5)).diagnostics == OptimizerDiagnostics()

    def test_every_simplex_is_capped_at_max_evaluations(self, monkeypatch):
        # Every start runs through _lockstep, once each ...
        config = OptimizerConfig(restarts=1)
        state = example_state(0.5, 0.5)
        assert len(recorded_searches(monkeypatch, lambda: optimize_discord("D1", state, config=config))) == 2
        assert len(recorded_searches(monkeypatch, lambda: discord_d3(bell_mixture(0.25)))) == 21
        # ... and a simplex that never settles stops at the cap.
        noise = np.random.default_rng(5)
        result = run_alone(lambda points: noise.random(len(points)), np.zeros(2))
        assert result.nfev == discord_module.MAX_EVALUATIONS
        assert not result.success


class TestSimplexParity:
    """One simplex run alone against scipy's Nelder-Mead at the same options,
    bit for bit, on the search objectives and with caps inside, at and past
    the starting simplex."""

    @staticmethod
    def _assert_matches_scipy(objective, start):
        ours = run_alone(objective, start)
        cap = discord_module.MAX_EVALUATIONS
        options = dict(fatol=discord_module.SIMPLEX_TOLERANCE, xatol=1e-6, maxfev=cap, maxiter=cap)
        reference = minimize(one_point(objective), start, method="Nelder-Mead", options=options)
        assert np.array_equal(ours.x, reference.x)
        assert (ours.fun, ours.nfev, ours.success) == (reference.fun, reference.nfev, reference.success)
        return ours

    @pytest.mark.parametrize("measure", ["D1", "D2"])
    @pytest.mark.parametrize("dims, seed", [((2, 2), 3), ((3, 2), 4), ((2, 4), 5), ((4, 2), 7)])
    def test_search_objectives(self, monkeypatch, measure, dims, seed):
        state = random_state(dims, seed=seed)
        config = OptimizerConfig(restarts=1, seed=seed)
        searches = recorded_searches(monkeypatch, lambda: optimize_discord(measure, state, config=config))
        assert len(searches) == 2
        results = [self._assert_matches_scipy(objective, start) for objective, start in searches]
        if (dims, measure) == ((4, 2), "D1"):
            assert [r.success for r in results] == [False, False]

    def test_restricted_objective_of_a_degenerate_marginal(self, monkeypatch):
        # rho_A has spectrum (1/4, 1/4, 1/2): one degenerate plane, searched from 0.
        sigmas = [np.diag([0.9, 0.1]), np.diag([0.2, 0.8]), np.eye(2) / 2]
        tilted = np.linalg.qr(np.random.default_rng(8).standard_normal((3, 3)))[0]
        state = zero_discord_state([0.25, 0.25, 0.5], tilted.T, sigmas)
        searches = recorded_searches(monkeypatch, lambda: discord_d3(state))
        assert len(searches) == 21
        for objective, start in searches[:3]:
            self._assert_matches_scipy(objective, start)

    @pytest.mark.parametrize("cap", [1, 5, 13])
    def test_patched_caps(self, monkeypatch, cap):
        monkeypatch.setattr(discord_module, "MAX_EVALUATIONS", cap)
        state = random_state((3, 2), seed=9)
        config = OptimizerConfig(restarts=1)
        searches = recorded_searches(monkeypatch, lambda: optimize_discord("D1", state, config=config))
        assert len(searches) == 2
        quartic = (lambda points: np.sum((points - 0.3) ** 4, axis=-1), np.array([0.5, 0.0, 1.0, 2.0]))
        for objective, start in [*searches, quartic]:
            result = self._assert_matches_scipy(objective, start)
            assert result.nfev == cap and not result.success

    def test_empty_start_is_evaluated_once(self):
        result = run_alone(lambda points: np.full(len(points), 0.25), np.empty(0))
        assert result.x.size == 0
        assert (result.fun, result.nfev, result.success) == (0.25, 1, True)


class TestLockstep:
    """Each simplex of a lockstep run ends exactly where it ends alone."""

    @staticmethod
    def _assert_each_runs_as_alone(objective, starts):
        together = discord_module._lockstep(objective, starts)
        assert len(together) == len(starts)
        for start, ours in zip(starts, together):
            alone = run_alone(objective, start)
            assert np.array_equal(ours.x, alone.x)
            assert (ours.fun, ours.nfev, ours.success) == (alone.fun, alone.nfev, alone.success)
        return together

    @pytest.mark.parametrize("measure", ["D1", "D2"])
    @pytest.mark.parametrize("dims", [(2, 2), (3, 2), (2, 4), (4, 2)])
    def test_search_objectives(self, monkeypatch, measure, dims):
        state = random_state(dims, seed=sum(dims))
        config = OptimizerConfig(restarts=3, seed=2)
        searches = recorded_searches(monkeypatch, lambda: optimize_discord(measure, state, config=config))
        objective = searches[0][0]
        self._assert_each_runs_as_alone(objective, [start for _, start in searches])

    def test_restricted_objective_of_a_degenerate_marginal(self, monkeypatch):
        searches = recorded_searches(monkeypatch, lambda: discord_d3(bell_mixture(0.25)))
        assert len(searches) == 21
        self._assert_each_runs_as_alone(searches[0][0], [start for _, start in searches])

    @pytest.mark.parametrize("cap", [1, 5, 13])
    def test_patched_caps(self, monkeypatch, cap):
        state = random_state((3, 2), seed=9)
        searches = recorded_searches(monkeypatch, lambda: optimize_discord("D1", state, config=OptimizerConfig(restarts=3)))
        monkeypatch.setattr(discord_module, "MAX_EVALUATIONS", cap)
        results = self._assert_each_runs_as_alone(searches[0][0], [start for _, start in searches])
        assert all(r.nfev == cap and not r.success for r in results)

    def test_capped_simplex_beside_converging_ones(self, monkeypatch):
        # A bowl, except that points with a first coordinate above 50 fall
        # off without bound: the start there expands until the cap.
        def objective(points):
            return np.where(points[:, 0] > 50, -np.sum(points, axis=-1), np.sum(points ** 2, axis=-1))

        monkeypatch.setattr(discord_module, "MAX_EVALUATIONS", 400)
        starts = [np.array([1.0, 2.0]), np.array([100.0, 100.0]), np.array([-3.0, 0.5])]
        results = self._assert_each_runs_as_alone(objective, starts)
        assert [r.success for r in results] == [True, False, True]
        assert results[1].nfev == 400 and results[0].nfev < 400

    def test_empty_start_of_a_one_dimensional_side(self, monkeypatch):
        state = BipartiteState((1, 2), np.diag([0.5, 0.5]))
        searches = recorded_searches(monkeypatch, lambda: optimize_discord("D2", state, config=FAST))
        assert len(searches) == 1 and searches[0][1].size == 0
        [result] = self._assert_each_runs_as_alone(searches[0][0], [searches[0][1]])
        assert (result.nfev, result.success) == (1, True)


class TestLuoBellDiagonal:
    """D1 and D3's restricted infimum against Luo's closed form for
    Bell-diagonal states. Their marginals are I/2, which every basis
    diagonalizes, so the restricted search spans every measurement."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_closed_form(self, seed):
        weights = np.random.default_rng(4400 + seed).dirichlet(np.ones(4))
        c = weights @ oracles.BELL_VERTICES
        state = BipartiteState((2, 2), oracles.bell_diagonal_rho(c))
        expected = oracles.luo_bell_diagonal_discord(c)
        assert optimize_discord("D1", state).value == pytest.approx(expected, abs=1e-9)
        d3 = discord_d3(state)
        assert d3.diagnostics.degenerate_marginal
        assert d3.diagnostics.restricted_infimum == pytest.approx(expected, abs=1e-9)


class TestD3Symmetric:
    def test_classical_classical_vanishes(self):
        rng = np.random.default_rng(103)
        w = rng.random((2, 3))
        w /= w.sum()
        state = classical_classical_state(w)
        assert discord_d3_symmetric(state).value == pytest.approx(0.0, abs=1e-10)

    def test_bell_state(self):
        report = discord_d3_symmetric(bell_mixture(1.0))
        assert report.value == pytest.approx(1.0, abs=1e-10)
        assert report.diagnostics.degenerate_marginal

    def test_upper_bounds_d1_nondegenerate(self):
        rng = np.random.default_rng(107)
        checked = 0
        for trial in range(40):
            state = random_state((2, 2), seed=1700 + trial)
            gaps_a = np.diff(np.linalg.eigvalsh(state.marginal("A")))
            gaps_b = np.diff(np.linalg.eigvalsh(state.marginal("B")))
            if min(gaps_a.min(), gaps_b.min()) < 1e-3:
                continue
            d1 = optimize_discord("D1", state, config=FAST).value
            assert discord_d3_symmetric(state).value >= d1 - 1e-7
            checked += 1
            if checked >= 15:
                break
        assert checked >= 10


class TestClosedFormAndDeficit:
    def test_equal_mixture_vanishes(self):
        assert bell_mixture_discord_closed_form(0.5) == 0.0

    def test_pure_endpoints(self):
        assert bell_mixture_discord_closed_form(0.0) == pytest.approx(1.0)
        assert bell_mixture_discord_closed_form(1.0) == pytest.approx(1.0)

    def test_quarter_value_and_optimizer_agreement(self):
        closed = bell_mixture_discord_closed_form(0.25)
        assert closed == pytest.approx(BELL_QUARTER, abs=1e-15)
        optimized = optimize_discord("D1", bell_mixture(0.25), config=FAST).value
        assert optimized == pytest.approx(closed, abs=1e-4)

    def test_out_of_range(self):
        with pytest.raises(InvalidParameters):
            bell_mixture_discord_closed_form(-0.1)

    def test_one_way_deficit_is_d2(self):
        state = example_state(0.5, 0.5)
        report = optimize_discord("D2", state, config=FAST)
        assert report.value == pytest.approx(discord_d2_at(state, report.optimal_measurement), abs=1e-12)

    def test_one_way_deficit_zero_discord(self):
        assert optimize_discord("D2", random_zero_discord(9), config=FAST).value == pytest.approx(
            0.0, abs=1e-7
        )

    def test_one_way_deficit_pure_state(self):
        state = random_state((2, 2), rank=1, seed=1900)
        assert optimize_discord("D2", state, config=FAST).value == pytest.approx(
            state_entropy(state.marginal("A")), abs=1e-6
        )


class TestProperties:
    def test_ordering_on_random_sample(self):
        for trial in range(30):
            state = random_state((2, 2), rank=1 + trial % 4, seed=2100 + trial)
            d1 = optimize_discord("D1", state, config=FAST).value
            d2 = optimize_discord("D2", state, config=FAST).value
            d3 = discord_d3(state).value
            assert d1 <= d2 + 1e-9
            assert d2 <= d3 + 1e-7

    def test_ordering_qubit_qutrit(self):
        for trial in range(10):
            state = random_state((2, 3), rank=1 + trial % 6, seed=2900 + trial)
            d1 = optimize_discord("D1", state, config=FAST).value
            d2 = optimize_discord("D2", state, config=FAST).value
            d3 = discord_d3(state).value
            assert d1 <= d2 + 1e-9
            assert d2 <= d3 + 1e-7

    def test_simultaneous_vanishing(self):
        for seed in (11, 12, 13):
            state = random_zero_discord(seed)
            assert optimize_discord("D1", state, config=FAST).value <= 1e-7
            assert optimize_discord("D2", state, config=FAST).value <= 1e-7
            assert discord_d3(state).value <= 1e-7

    def test_pure_states_all_measures_equal_entanglement(self):
        for seed in range(3):
            state = random_state((2, 2), rank=1, seed=2300 + seed)
            expected = state_entropy(state.marginal("A"))
            assert optimize_discord("D1", state, config=FAST).value == pytest.approx(
                expected, abs=1e-6
            )
            assert optimize_discord("D2", state, config=FAST).value == pytest.approx(
                expected, abs=1e-6
            )
            assert discord_d3(state).value == pytest.approx(expected, abs=1e-6)

    def test_maximally_mixed_marginal_d1_equals_d2(self):
        for a in (0.15, 0.3, 0.45):
            state = bell_mixture(a)
            d1 = optimize_discord("D1", state, config=FAST).value
            d2 = optimize_discord("D2", state, config=FAST).value
            assert abs(d1 - d2) <= 1e-6

    def test_strict_inequality_mechanism(self):
        # Whenever the optimal deficit basis is not the marginal eigenbasis,
        # D1 must be strictly below D2.
        for trial in range(20):
            state = random_state((2, 2), seed=2500 + trial)
            d2_report = optimize_discord("D2", state, config=FAST)
            s_a = state_entropy(state.marginal("A"))
            gap = outcome_entropy(state, d2_report.optimal_measurement) - s_a
            if gap > 1e-6:
                d1 = optimize_discord("D1", state, config=FAST).value
                assert d1 < d2_report.value - 1e-7


class TestOraclesBeyondQubits:
    """Checks at measured dimension 3 and 4 against tests/oracles.py, which
    does not use the package's own code paths."""

    @pytest.mark.parametrize("dims", [(3, 3), (3, 2), (2, 4), (4, 4)])
    def test_pure_states_all_measures_equal_marginal_entropy(self, dims):
        # D1 is constant on pure states; the D2 value tests the search.
        state = random_state(dims, rank=1, seed=2700)
        expected = oracles.state_entropy(oracles.loop_partial_trace(state.rho, dims, "A"))
        config = OptimizerConfig(restarts=1, seed=0)
        assert optimize_discord("D1", state, config=config).value == pytest.approx(expected, abs=1e-9)
        assert optimize_discord("D2", state, config=config).value == pytest.approx(expected, abs=1e-9)
        assert discord_d3(state).value == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("dims", [(3, 3), (3, 2)])
    @pytest.mark.parametrize("measure", ["D1", "D2"])
    def test_search_stays_below_random_basis_bound(self, dims, measure):
        state = random_state(dims, seed=2800)
        report = optimize_discord(measure, state, config=OptimizerConfig(restarts=2, seed=0))
        basis = report.optimal_measurement.basis
        at_basis = oracles.measured_values(state.rho, dims, "A", measure, basis[None])[0]
        assert report.value == pytest.approx(at_basis, abs=1e-9)
        assert report.value <= oracles.random_basis_bound(state.rho, dims, "A", measure)


class TestVanishTogetherBeyondQubits:
    """The paper's measures vanish together on zero-discord states, checked at
    measured dimension 3 with a Haar-rotated defining basis."""

    @pytest.mark.parametrize("dims", [(3, 2), (3, 3)])
    @pytest.mark.parametrize("weights", [[0.5, 0.3, 0.2], [0.4, 0.4, 0.2]], ids=["plain", "degenerate"])
    def test_zero_discord_state(self, dims, weights):
        rng = np.random.default_rng(3100 + dims[1])
        basis = oracles.haar_bases(1, 3, rng)[0]
        sigmas = [random_state((dims[1], 1), seed=int(rng.integers(1 << 30))).rho for _ in range(3)]
        state = zero_discord_state(weights, basis.T, sigmas)
        config = OptimizerConfig(restarts=2, seed=0)
        assert classify_zero_discord(state).verdict == "ZERO"
        assert optimize_discord("D1", state, config=config).value <= 1e-9
        assert optimize_discord("D2", state, config=config).value <= 1e-9
        d3 = discord_d3(state)
        assert d3.diagnostics.degenerate_marginal == (weights[0] == weights[1])
        if d3.diagnostics.degenerate_marginal:
            # The conventional eigenbasis need not be the defining one; the
            # search over bases diagonalizing the marginal finds it.
            assert d3.diagnostics.restricted_infimum <= 1e-9
        else:
            assert d3.value <= 1e-9
        assert classify_zero_discord(random_state(dims, seed=3200)).verdict == "NONZERO"


class TestClassifier:
    def test_teahouse_equal_zero_both_sides(self):
        state = teahouse_ensemble().density_matrix()
        for side in ("A", "B"):
            verdict = classify_zero_discord(state, side)
            assert verdict.verdict == "ZERO"
            assert verdict.witness is not None

    def test_teahouse_doubled_nonzero_by_commutator(self):
        weights = np.full(9, 1 / 11)
        weights[6] = weights[8] = 2 / 11
        state = teahouse_ensemble(weights).density_matrix()
        verdict = classify_zero_discord(state, "A")
        assert verdict.verdict == "NONZERO"
        assert verdict.method == "COMMUTATOR"
        assert verdict.commutator_norm > 1e-7

    def test_bell_mixtures(self):
        assert classify_zero_discord(bell_mixture(0.5)).verdict == "ZERO"
        verdict = classify_zero_discord(bell_mixture(0.3))
        assert verdict.verdict == "NONZERO"
        # Maximally mixed marginal commutes with everything, so the evidence
        # must come from the eigenstructure stage.
        assert verdict.method == "EIGENSTRUCTURE"

    def test_constructed_zero_nondegenerate(self):
        for seed in (15, 16):
            verdict = classify_zero_discord(random_zero_discord(seed))
            assert verdict.verdict == "ZERO"
            assert verdict.method == "EIGENBASIS"

    def test_constructed_zero_degenerate(self):
        for seed in (17, 18):
            verdict = classify_zero_discord(random_zero_discord(seed, degenerate=True))
            assert verdict.verdict == "ZERO"
            assert verdict.method == "EIGENSTRUCTURE"
            assert verdict.witness is not None

    def test_generic_state_nonzero(self):
        verdict = classify_zero_discord(example_state(0.5, 0.5), "A")
        assert verdict.verdict == "NONZERO"
        assert verdict.method == "COMMUTATOR"

    @pytest.mark.parametrize("side", ["A", "B"])
    def test_noncommuting_blocks_prove_nonzero(self, side):
        # Near the equal mixture the blocks fail to commute by 5e-5 while the
        # discord, 1 - H2(a) = 2.9e-8, lies inside the residual's ambiguity band.
        verdict = classify_zero_discord(bell_mixture(0.5001), side)
        assert verdict.verdict == "NONZERO"
        assert verdict.method == "EIGENSTRUCTURE"
        assert verdict.witness is None
        assert verdict.residual_discord == pytest.approx(bell_mixture_discord_closed_form(0.5001), abs=1e-12)
        # The deciding commutator is the blocks' |2a - 1|/4, not the marginal's 0.
        assert verdict.commutator_norm == pytest.approx(5e-5, rel=1e-9)

    def test_example_state_zero_on_b_side(self):
        verdict = classify_zero_discord(example_state(0.5, 0.5), "B")
        assert verdict.verdict == "ZERO"
        assert verdict.method == "EIGENSTRUCTURE"

    def test_near_threshold_state_is_ambiguous(self):
        sigmas = [np.diag([0.8, 0.2]).astype(complex), np.diag([0.3, 0.7]).astype(complex)]
        base = zero_discord_state([0.3, 0.7], np.eye(2), sigmas)
        eps = 3e-7
        mixed = BipartiteState((2, 2), (1 - eps) * base.rho + eps * example_state(0.5, 0.5).rho)
        verdict = classify_zero_discord(mixed, "A")
        assert verdict.verdict == "AMBIGUOUS"
        assert verdict.commutator_norm > 0
        assert verdict.residual_discord is not None

    def test_agreement_with_optimizer(self):
        for trial in range(25):
            if trial % 5 == 0:
                state = random_zero_discord(2700 + trial, degenerate=(trial % 10 == 0))
            else:
                state = random_state((2, 2), rank=1 + trial % 4, seed=2700 + trial)
            verdict = classify_zero_discord(state)
            d1 = optimize_discord("D1", state, config=FAST).value
            assert verdict.verdict != "AMBIGUOUS"
            assert (verdict.verdict == "ZERO") == (d1 <= 1e-6)

    @pytest.mark.parametrize("side", ["A", "B"])
    @pytest.mark.parametrize("dims", [(2, 5), (3, 3), (4, 2)])
    def test_batched_block_commutator_equals_pairwise_maximum(self, dims, side):
        states = [random_state(dims, seed=2900 + seed) for seed in range(5)]
        sigmas = [random_state((dims[1], 1), seed=2910 + k).rho for k in range(dims[0])]
        states.append(zero_discord_state(np.full(dims[0], 1 / dims[0]), np.eye(dims[0]), sigmas))
        for state in states:
            blocks = discord_module._side_blocks(state, side)
            pairwise = max(commutator_norm(x, y) for x, y in combinations(blocks, 2))
            assert discord_module._block_commutator(blocks) == pairwise
