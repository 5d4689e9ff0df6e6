"""Tests for the branch-flow SOCP extension (cones, formulation, solver)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import ADMMConfig
from repro.socp import (
    ConicSolverFreeADMM,
    build_bfm_socp,
    decompose_conic,
    in_rotated_soc,
    positive_sequence_impedance,
    project_rotated_soc,
    project_rotated_soc_batch,
    project_soc,
    project_soc_batch,
)


class TestSOCProjection:
    def test_inside_unchanged(self):
        t, z = project_soc(2.0, np.array([1.0, 1.0]))
        assert t == 2.0
        np.testing.assert_array_equal(z, [1.0, 1.0])

    def test_polar_cone_to_origin(self):
        t, z = project_soc(-5.0, np.array([1.0, 0.0]))
        assert t == 0.0
        np.testing.assert_array_equal(z, 0.0)

    def test_boundary_case(self):
        t, z = project_soc(0.0, np.array([2.0, 0.0]))
        assert t == pytest.approx(1.0)
        np.testing.assert_allclose(z, [1.0, 0.0])

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-5, 5),
        arrays(np.float64, 3, elements=st.floats(-5, 5, allow_nan=False)),
    )
    def test_projection_properties(self, t, z):
        tp, zp = project_soc(t, z)
        # Feasibility.
        assert np.linalg.norm(zp) <= tp + 1e-9
        # Idempotency.
        tp2, zp2 = project_soc(tp, zp)
        assert tp2 == pytest.approx(tp, abs=1e-9)
        np.testing.assert_allclose(zp2, zp, atol=1e-9)

    def test_batch_matches_scalar(self, rng):
        t = rng.uniform(-2, 2, 40)
        z = rng.uniform(-2, 2, (40, 2))
        tb, zb = project_soc_batch(t, z)
        for i in range(40):
            ts, zs = project_soc(t[i], z[i])
            assert tb[i] == pytest.approx(ts)
            np.testing.assert_allclose(zb[i], zs, atol=1e-12)


class TestRotatedSOC:
    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(-3, 3),
        st.floats(-3, 3),
        arrays(np.float64, 2, elements=st.floats(-3, 3, allow_nan=False)),
    )
    def test_projection_feasible_and_idempotent(self, u, v, w):
        up, vp, wp = project_rotated_soc(u, v, w)
        assert in_rotated_soc(up, vp, wp, tol=1e-7)
        up2, vp2, wp2 = project_rotated_soc(up, vp, wp)
        assert up2 == pytest.approx(up, abs=1e-8)
        assert vp2 == pytest.approx(vp, abs=1e-8)
        np.testing.assert_allclose(wp2, wp, atol=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(0.01, 3),
        st.floats(0.01, 3),
        arrays(np.float64, 2, elements=st.floats(-1, 1, allow_nan=False)),
    )
    def test_members_fixed(self, u, v, w):
        """Points already in the cone are untouched."""
        w = w * np.sqrt(2.0 * u * v) / (np.linalg.norm(w) + 1.0)
        assert in_rotated_soc(u, v, w)
        up, vp, wp = project_rotated_soc(u, v, w)
        assert up == pytest.approx(u, abs=1e-9)
        np.testing.assert_allclose(wp, w, atol=1e-9)

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(-3, 3), st.floats(-3, 3),
        arrays(np.float64, 2, elements=st.floats(-3, 3, allow_nan=False)),
    )
    def test_projection_is_closest_among_probes(self, u, v, w):
        up, vp, wp = project_rotated_soc(u, v, w)
        d_star = np.linalg.norm([u - up, v - vp]) ** 2 + np.linalg.norm(w - wp) ** 2
        rng = np.random.default_rng(0)
        for _ in range(10):
            cu, cv = rng.uniform(0, 3, 2)
            cw = rng.uniform(-1, 1, 2)
            if 2.0 * cu * cv < cw @ cw:
                continue
            d = np.linalg.norm([u - cu, v - cv]) ** 2 + np.linalg.norm(w - cw) ** 2
            assert d_star <= d + 1e-8

    def test_batch_shape(self, rng):
        u, v, w = project_rotated_soc_batch(
            rng.uniform(-1, 1, 9), rng.uniform(-1, 1, 9), rng.uniform(-1, 1, (9, 2))
        )
        assert u.shape == (9,) and w.shape == (9, 2)
        assert np.all(u >= 0) and np.all(v >= 0)


class TestBFMFormulation:
    def test_positive_sequence_reduction(self):
        from repro.network.components import Line

        line = Line(
            "e", "a", "b", (1, 2, 3),
            r=np.full((3, 3), 0.1) + np.eye(3) * 0.2,
            x=np.full((3, 3), 0.05) + np.eye(3) * 0.3,
        )
        r1, x1 = positive_sequence_impedance(line)
        assert r1 == pytest.approx(0.3 - 0.1)
        assert x1 == pytest.approx(0.35 - 0.05)

    def test_single_phase_passthrough(self):
        from repro.network.components import Line

        line = Line("e", "a", "b", (2,), r=[[0.4]], x=[[0.7]])
        assert positive_sequence_impedance(line) == (0.4, 0.7)

    def test_problem_structure(self, ieee13_net):
        prob = build_bfm_socp(ieee13_net)
        net = ieee13_net
        # 2 balance rows per bus + 1 drop row per line; one cone per line.
        assert len(prob.rows) == 2 * net.n_buses + net.n_lines
        assert len(prob.cones) == net.n_lines
        assert len(prob.orientation) == net.n_lines

    def test_orientation_away_from_root(self, ieee13_net):
        prob = build_bfm_socp(ieee13_net)
        parents = {j: i for i, j in prob.orientation.values()}
        assert ieee13_net.substation not in parents

    def test_requires_substation(self, ieee13_net):
        from repro.utils.exceptions import FormulationError

        net = ieee13_net.copy()
        net.substation = None
        with pytest.raises(FormulationError, match="substation"):
            build_bfm_socp(net)


class TestConicSolver:
    @pytest.fixture(scope="class")
    def ieee13_socp(self, ieee13_net):
        prob = build_bfm_socp(ieee13_net, le_max=10.0)
        dec = decompose_conic(prob)
        res = ConicSolverFreeADMM(
            dec, ADMMConfig(eps_rel=1e-4, max_iter=60000, record_history=False)
        ).solve()
        return prob, dec, res

    def test_every_variable_covered(self, ieee13_socp):
        _, dec, _ = ieee13_socp
        assert np.all(dec.counts >= 1)

    def test_converges_feasibly(self, ieee13_socp):
        prob, _, res = ieee13_socp
        assert res.converged
        a, b = prob.linear_system()
        assert np.abs(a @ res.x - b).max() < 1e-3
        assert prob.cone_violation(res.x) < 1e-6
        assert np.all(res.x >= prob.lb - 1e-9)
        assert np.all(res.x <= prob.ub + 1e-9)

    def test_relaxation_tight_on_loaded_lines(self, ieee13_socp):
        """Radial feeder: the SOC relaxation is exact — slack ~0 on every
        line that carries current (nonzero impedance)."""
        prob, _, res = ieee13_socp
        vi = prob.var_index
        slacks = prob.cone_slack(res.x)
        for k, cone in enumerate(prob.cones):
            p = res.x[vi.index(cone.w_keys[0])]
            line = prob.network.lines[cone.line]
            # Only meaningful resistance pins le to the cone surface; on
            # near-lossless elements (the switch) le is epsilon-regularized
            # but its slack is economically irrelevant.
            if abs(p) > 1e-3 and np.abs(line.r).max() > 1e-3:
                assert slacks[k] < 1e-2, cone.line

    def test_matches_slsqp_reference(self, ieee13_socp):
        """Cross-validate against scipy's SLSQP on the same SOCP."""
        from scipy.optimize import LinearConstraint, NonlinearConstraint, minimize

        prob, _, res = ieee13_socp
        a, b = prob.linear_system()
        vi = prob.var_index

        def cone_fun(x):
            vals = []
            for c in prob.cones:
                le = x[vi.index(c.u_key)]
                w = x[vi.index(c.v_key)]
                p = x[vi.index(c.w_keys[0])]
                q = x[vi.index(c.w_keys[1])]
                vals.append(2.0 * le * w - p * p - q * q)
            return np.array(vals)

        ref = minimize(
            lambda x: prob.cost @ x,
            prob.initial_point(),
            jac=lambda x: prob.cost,
            bounds=list(zip(prob.lb, prob.ub)),
            constraints=[
                LinearConstraint(a.toarray(), b, b),
                NonlinearConstraint(cone_fun, 0, np.inf),
            ],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-10},
        )
        assert ref.success
        assert abs(res.objective - ref.fun) / max(abs(ref.fun), 1e-9) < 5e-3

    def test_rejects_extension_configs(self, ieee13_net):
        prob = build_bfm_socp(ieee13_net)
        dec = decompose_conic(prob)
        with pytest.raises(ValueError, match="plain ADMM"):
            ConicSolverFreeADMM(dec, ADMMConfig(relaxation=1.5))

    def test_warm_start_shape_checked(self, ieee13_net):
        prob = build_bfm_socp(ieee13_net)
        dec = decompose_conic(prob)
        solver = ConicSolverFreeADMM(dec, ADMMConfig(max_iter=5))
        with pytest.raises(ValueError, match="inconsistent shapes"):
            solver.solve(x0=np.zeros(3))

    def test_synthetic_feeder_socp(self, small_net):
        prob = build_bfm_socp(small_net, le_max=10.0)
        dec = decompose_conic(prob)
        res = ConicSolverFreeADMM(
            dec, ADMMConfig(eps_rel=1e-4, max_iter=120000, record_history=False)
        ).solve()
        assert res.converged
        # The global iterate x carries a consensus-level (pres-sized)
        # violation; the projected local copies are exactly feasible.
        assert prob.cone_violation(res.x) < 1e-4
