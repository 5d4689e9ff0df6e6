"""Tests for the multi-period storage extension."""

import numpy as np
import pytest

from repro.core import ADMMConfig
from repro.feeders import SyntheticFeederSpec, build_synthetic_feeder
from repro.multiperiod import (
    Storage,
    build_multiperiod_lp,
    decompose_multiperiod,
)
from repro.reference import solve_reference
from repro.socp import ConicSolverFreeADMM
from repro.utils.exceptions import FormulationError


@pytest.fixture(scope="module")
def mp_net():
    return build_synthetic_feeder(
        SyntheticFeederSpec(name="mp", n_buses=15, seed=5, load_density=0.8)
    )


@pytest.fixture(scope="module")
def mp_setup(mp_net):
    load = np.array([0.6, 0.7, 1.0, 1.3, 1.1, 0.8])
    price = np.array([0.5, 0.6, 1.0, 2.0, 1.5, 0.8])
    host = [b for b in mp_net.buses.values() if b.n_phases == 3][1]
    st = Storage("ess1", host.name, p_ch_max=0.1, p_dis_max=0.1, energy_max=0.3, soc0=0.15)
    prob = build_multiperiod_lp(mp_net, load, price, [st])
    ref = solve_reference(prob.to_centralized())
    return prob, ref, st


class TestStorageValidation:
    def test_bad_ratings(self):
        with pytest.raises(ValueError, match="nonpositive"):
            Storage("s", "b", energy_max=0.0)

    def test_bad_efficiency(self):
        with pytest.raises(ValueError, match="efficiencies"):
            Storage("s", "b", eta_ch=1.5)

    def test_soc0_outside_capacity(self):
        with pytest.raises(ValueError, match="soc0"):
            Storage("s", "b", energy_max=0.1, soc0=0.5)


class TestBuild:
    def test_variable_count_scales_with_periods(self, mp_net):
        p2 = build_multiperiod_lp(mp_net, np.ones(2))
        p4 = build_multiperiod_lp(mp_net, np.ones(4))
        assert p4.n_vars == 2 * p2.n_vars
        assert len(p4.rows) == 2 * len(p2.rows)

    def test_empty_profile_rejected(self, mp_net):
        with pytest.raises(FormulationError, match="non-empty"):
            build_multiperiod_lp(mp_net, [])

    def test_price_length_checked(self, mp_net):
        with pytest.raises(FormulationError, match="match"):
            build_multiperiod_lp(mp_net, np.ones(3), price_profile=np.ones(2))

    def test_unknown_storage_bus(self, mp_net):
        with pytest.raises(FormulationError, match="unknown bus"):
            build_multiperiod_lp(mp_net, np.ones(2), storages=[Storage("s", "zz")])

    def test_storage_owns_its_chain(self, mp_setup):
        prob, _, st = mp_setup
        soc_rows = [r for r in prob.rows if r.owner == ("storage", st.name)]
        # One SOC row per period + the cyclic closure.
        assert len(soc_rows) == prob.n_periods + 1

    def test_original_network_not_mutated(self, mp_net):
        before = mp_net.total_load_p
        build_multiperiod_lp(mp_net, np.array([2.0, 3.0]))
        assert mp_net.total_load_p == pytest.approx(before)


class TestReferenceSolution:
    def test_soc_dynamics_hold(self, mp_setup):
        prob, ref, st = mp_setup
        soc = prob.soc_trajectory(ref.x, st.name)
        power = prob.storage_power(ref.x, st.name)
        vi = prob.var_index
        for t in range(prob.n_periods):
            nm = f"{st.name}@t{t}"
            charge = sum(
                ref.x[vi.index(("sc", nm, phi))]
                for phi in prob.network.buses[st.bus].phases
            )
            discharge = sum(
                ref.x[vi.index(("sd", nm, phi))]
                for phi in prob.network.buses[st.bus].phases
            )
            expected = soc[t] + st.eta_ch * charge - discharge / st.eta_dis
            assert soc[t + 1] == pytest.approx(expected, abs=1e-7)
        assert power.shape == (prob.n_periods,)

    def test_cyclic_constraint(self, mp_setup):
        prob, ref, st = mp_setup
        soc = prob.soc_trajectory(ref.x, st.name)
        assert soc[-1] == pytest.approx(st.soc0, abs=1e-7)

    def test_arbitrage_direction(self, mp_setup):
        """Storage charges in the cheapest period and discharges in the most
        expensive one — the economics must point the right way."""
        prob, ref, st = mp_setup
        power = prob.storage_power(ref.x, st.name)
        assert power[0] < -1e-4  # price 0.5: charging (net draw)
        assert power[3] > 1e-4  # price 2.0: discharging

    def test_storage_lowers_cost(self, mp_net, mp_setup):
        prob, ref, st = mp_setup
        load = np.array([0.6, 0.7, 1.0, 1.3, 1.1, 0.8])
        price = np.array([0.5, 0.6, 1.0, 2.0, 1.5, 0.8])
        no_storage = build_multiperiod_lp(mp_net, load, price)
        ref0 = solve_reference(no_storage.to_centralized())
        assert ref.objective < ref0.objective

    def test_soc_within_capacity(self, mp_setup):
        prob, ref, st = mp_setup
        soc = prob.soc_trajectory(ref.x, st.name)
        assert np.all(soc >= -1e-9)
        assert np.all(soc <= st.energy_max + 1e-9)


class TestDistributedSolve:
    def test_admm_matches_reference(self, mp_setup):
        prob, ref, _ = mp_setup
        dec = decompose_multiperiod(prob)
        res = ConicSolverFreeADMM(
            dec, ADMMConfig(max_iter=200_000, record_history=False)
        ).solve()
        assert res.converged
        assert ref.compare_objective(res.objective) < 2e-2

    def test_components_span_periods_only_for_storage(self, mp_setup):
        prob, _, st = mp_setup
        dec = decompose_multiperiod(prob)
        storage_comps = [c for c in dec.linear if c.name == f"storage:{st.name}"]
        assert len(storage_comps) == 1
        # The storage component touches variables from every period.
        periods = {key[1].split("@t")[1] for key in storage_comps[0].local_keys}
        assert len(periods) == prob.n_periods

    def test_every_variable_covered(self, mp_setup):
        prob, _, _ = mp_setup
        dec = decompose_multiperiod(prob)
        assert np.all(dec.counts >= 1)


class TestRollingHorizon:
    @pytest.fixture(scope="class")
    def schedule(self, mp_net):
        from repro.multiperiod import rolling_horizon

        load = [0.6, 0.8, 1.1, 1.3, 1.0, 0.7]
        price = [0.5, 0.7, 1.1, 1.8, 1.2, 0.6]
        host = [b for b in mp_net.buses.values() if b.n_phases == 3][1]
        st = Storage(
            "ess1", host.name, p_ch_max=0.08, p_dis_max=0.08,
            energy_max=0.25, soc0=0.1,
        )
        result = rolling_horizon(
            mp_net, load, price, [st], window=3, solver="reference"
        )
        return result, st

    def test_soc_dynamics_within_1e8(self, schedule):
        """Acceptance criterion: the committed trajectory satisfies the SoC
        dynamics and limits to 1e-8."""
        result, st = schedule
        soc = result.soc_trajectory(st.name)
        assert soc[0] == pytest.approx(st.soc0, abs=1e-12)
        for t, step in enumerate(result.steps):
            ch = step.storage_charge[st.name]
            dis = step.storage_discharge[st.name]
            expected = soc[t] + st.eta_ch * ch - dis / st.eta_dis
            assert abs(soc[t + 1] - expected) <= 1e-8
            assert -1e-8 <= ch <= st.p_ch_max + 1e-8
            assert -1e-8 <= dis <= st.p_dis_max + 1e-8
        assert np.all(soc >= -1e-8)
        assert np.all(soc <= st.energy_max + 1e-8)

    def test_one_step_per_period(self, schedule):
        result, _ = schedule
        assert [s.period for s in result.steps] == list(range(6))
        assert all(s.converged for s in result.steps)
        assert result.committed_cost > 0

    def test_admm_close_to_reference(self, mp_net, schedule):
        from repro.multiperiod import rolling_horizon

        ref_result, st = schedule
        load = [0.6, 0.8, 1.1, 1.3, 1.0, 0.7]
        price = [0.5, 0.7, 1.1, 1.8, 1.2, 0.6]
        admm = rolling_horizon(
            mp_net, load, price,
            [Storage("ess1", st.bus, p_ch_max=0.08, p_dis_max=0.08,
                     energy_max=0.25, soc0=0.1)],
            window=3, solver="admm",
            config=ADMMConfig(rho=10.0, eps_rel=1e-3, max_iter=40_000),
        )
        assert all(s.converged for s in admm.steps)
        rel = abs(admm.committed_cost - ref_result.committed_cost) / abs(
            ref_result.committed_cost
        )
        assert rel < 5e-2

    def test_empty_profile_rejected(self, mp_net):
        from repro.multiperiod import rolling_horizon

        with pytest.raises(FormulationError, match="non-empty"):
            rolling_horizon(mp_net, [])

    def test_bad_window_rejected(self, mp_net):
        from repro.multiperiod import rolling_horizon

        with pytest.raises(FormulationError, match="window"):
            rolling_horizon(mp_net, [1.0], window=0)

    def test_bad_solver_rejected(self, mp_net):
        from repro.multiperiod import rolling_horizon

        with pytest.raises(FormulationError, match="solver"):
            rolling_horizon(mp_net, [1.0], solver="magic")
