import numpy as np
import pytest

from discordant import (
    InvalidParameters,
    OptimizerConfig,
    ProjectiveMeasurement,
    conditional_entropy_after_measurement,
    discord_d2_at,
    discord_d3,
    mutual_information,
    optimize_discord,
    post_measurement_state,
    work_ledger,
    work_single,
)
from discordant.states import (
    bell_mixture,
    classical_classical_state,
    example_state,
    random_state,
    zero_discord_state,
)

import oracles

D2_EXAMPLE = 0.19956198165357186
D3_EXAMPLE = 0.21040208776627678
WORK_QUARTER = 0.18872187554086717  # 1 - H2(1/4)
FAST = OptimizerConfig(restarts=6, seed=1)


class TestWorkSingle:
    def test_pure_qubit(self):
        assert work_single(np.diag([1.0, 0.0])) == pytest.approx(1.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert work_single(np.eye(2) / 2) == pytest.approx(0.0, abs=1e-12)

    def test_binary_spectrum(self):
        assert work_single(np.diag([0.75, 0.25])) == pytest.approx(WORK_QUARTER, abs=1e-14)

    def test_kt_scaling(self):
        assert work_single(np.diag([0.75, 0.25]), kt=3.0) == pytest.approx(
            3.0 * WORK_QUARTER, abs=1e-13
        )

    def test_rejects_non_density(self):
        with pytest.raises(InvalidParameters, match="differs from 1"):
            work_single(np.eye(2))
        with pytest.raises(InvalidParameters):
            work_single(np.eye(2) / 2, kt=0.0)


class TestWorkLedger:
    def test_bell_state(self):
        ledger = work_ledger(bell_mixture(1.0), config=FAST)
        assert ledger.w_plus == pytest.approx(2.0, abs=1e-10)
        assert ledger.w_local == pytest.approx(0.0, abs=1e-10)
        assert ledger.delta_l == pytest.approx(2.0, abs=1e-10)
        assert ledger.w2 == pytest.approx(1.0, abs=1e-8)
        assert ledger.w3 == pytest.approx(1.0, abs=1e-8)
        assert ledger.delta_2 == pytest.approx(1.0, abs=1e-8)
        assert ledger.delta_3 == pytest.approx(1.0, abs=1e-8)

    def test_example_state_deltas(self):
        ledger = work_ledger(example_state(0.5, 0.5))
        assert ledger.delta_2 == pytest.approx(D2_EXAMPLE, abs=1e-7)
        assert ledger.delta_3 == pytest.approx(D3_EXAMPLE, abs=1e-9)

    def test_maximally_mixed_all_zero(self):
        state = classical_classical_state(np.full((2, 2), 0.25))
        ledger = work_ledger(state, config=FAST)
        for value in (
            ledger.w_plus, ledger.w_local, ledger.w2, ledger.w3,
            ledger.delta_l, ledger.delta_2, ledger.delta_3,
        ):
            assert value == pytest.approx(0.0, abs=1e-7)

    def test_delta_l_is_mutual_information(self):
        for seed in range(5):
            state = random_state((2, 2), seed=3100 + seed)
            ledger = work_ledger(state, config=FAST)
            assert ledger.delta_l == pytest.approx(mutual_information(state), abs=1e-9)

    def test_deltas_match_discord_measures(self):
        for seed in range(5):
            state = random_state((2, 2), rank=1 + seed % 4, seed=3300 + seed)
            ledger = work_ledger(state, config=FAST)
            assert ledger.delta_2 == pytest.approx(
                optimize_discord("D2", state, config=FAST).value, abs=1e-7
            )
            assert ledger.delta_3 == pytest.approx(discord_d3(state).value, abs=1e-7)

    def test_scenario_ordering(self):
        for seed in range(8):
            state = random_state((2, 2), rank=1 + seed % 4, seed=3500 + seed)
            ledger = work_ledger(state, config=FAST)
            assert ledger.w_plus >= max(ledger.w_local, ledger.w2, ledger.w3) - 1e-7
            assert ledger.w2 >= ledger.w3 - 1e-7
            for delta in (ledger.delta_l, ledger.delta_2, ledger.delta_3):
                assert delta >= -1e-7

    def test_kt_scaling_is_exact(self):
        state = zero_discord_state(
            [0.4, 0.6], np.eye(2),
            [np.diag([0.9, 0.1]).astype(complex), np.diag([0.2, 0.8]).astype(complex)],
        )
        unit = work_ledger(state, kt=1.0, config=FAST)
        scaled = work_ledger(state, kt=2.5, config=FAST)
        for name in ("w_plus", "w_local", "w2", "w3", "delta_l", "delta_2", "delta_3"):
            assert getattr(scaled, name) == 2.5 * getattr(unit, name)
        assert scaled.d2.value == unit.d2.value  # the D2 report stays in bits

    def test_rejects_bad_kt(self):
        for kt in (-1.0, 0.0, float("nan"), float("inf"), "1", None, True):
            with pytest.raises(InvalidParameters):
                work_ledger(bell_mixture(1.0), kt=kt)
            with pytest.raises(InvalidParameters):
                work_single(np.eye(2) / 2, kt=kt)

    def test_rejects_overflowing_kt(self):
        # kT is finite, but kT times the work is not.
        with pytest.raises(InvalidParameters):
            work_ledger(bell_mixture(1.0), kt=1e308, config=OptimizerConfig(restarts=1))
        with pytest.raises(InvalidParameters):
            work_single(np.diag([1.0, 0.0, 0.0, 0.0]), kt=1e308)

    def test_w2_measurement_reported(self):
        ledger = work_ledger(example_state(0.5, 0.5), config=FAST)
        assert ledger.d2.optimal_measurement.subsystem == "A"
        assert ledger.d2.optimal_measurement.d == 2


@pytest.mark.parametrize("dims", [(2, 3), (3, 2), (3, 3), (2, 4)])
def test_engine_identities_beyond_qubits(dims):
    # The identities behind the ledger and D2, each computed once at run time,
    # checked here against the independent oracles at Haar-random bases.
    rng = np.random.default_rng(4100 + 10 * dims[0] + dims[1])
    state = random_state(dims, seed=int(rng.integers(1 << 30)))
    s_ab = oracles.state_entropy(state.rho)
    for side, d in zip("AB", dims):
        basis = oracles.haar_bases(1, d, rng)[0]
        m = ProjectiveMeasurement(side, basis)
        s_post = oracles.state_entropy(post_measurement_state(state, m).rho)
        assert discord_d2_at(state, m) + s_ab == pytest.approx(s_post, abs=1e-9)
        marginal = oracles.loop_partial_trace(state.rho, dims, side)
        outcome_entropy = oracles.entropy_bits(np.diag(basis.conj().T @ marginal @ basis).real)
        oracle = oracles.measured_values(state.rho, dims, side, "D2", basis[None])[0] + s_ab - outcome_entropy
        assert conditional_entropy_after_measurement(state, m) == pytest.approx(oracle, abs=1e-12)

    ledger = work_ledger(state, config=OptimizerConfig(restarts=1))
    information = sum(oracles.state_entropy(oracles.loop_partial_trace(state.rho, dims, k)) for k in "AB") - s_ab
    assert ledger.delta_l == pytest.approx(information, abs=1e-9)
    assert ledger.delta_2 == pytest.approx(ledger.d2.value, abs=1e-9)
    assert ledger.delta_3 == pytest.approx(discord_d3(state).value, abs=1e-9)
