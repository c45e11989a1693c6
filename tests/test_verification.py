"""Tests for the verification oracles (small, fast configurations)."""

from dataclasses import replace

import numpy as np
import pytest

from hotpress.scenario import SolverConfig, humphrey_preset
from hotpress.solver import newton_solve, rms
from hotpress import verification as vf


@pytest.fixture(scope="module")
def small_scenario():
    return replace(humphrey_preset(), n_r=8, n_z=8,
                   solver=SolverConfig(dt=1.0, t_end=10.0))


class TestCheckResult:
    def test_pass_line(self):
        c = vf.CheckResult("demo", True, value=1.0, threshold=2.0,
                           detail="1 below 2")
        assert c.line() == "PASS demo: 1 below 2"

    def test_fail_line(self):
        c = vf.CheckResult("demo", False, detail="went wrong")
        assert c.line().startswith("FAIL demo:")


class TestPropertiesSuite:
    def test_all_pass(self):
        checks = vf.properties_suite()
        assert len(checks) == 4
        for c in checks:
            assert c.passed, c.line()

    def test_golden_values_reported(self):
        by_name = {c.name: c for c in vf.properties_suite()}
        psat = by_name["saturation pressure at 100 degC"]
        assert psat.value == pytest.approx(1.017e5, rel=0.02)
        cp = by_name["dry specific heat at 0 degC"]
        assert cp.value == pytest.approx(1120.2, abs=0.1)


class TestSupgBenchmark:
    def test_profiles_shape_and_ends(self):
        gal, stab = vf.supg_benchmark(n=20)
        assert gal.shape == stab.shape == (21,)
        for prof in (gal, stab):
            assert prof[0] == pytest.approx(0.0, abs=1e-12)
            assert prof[-1] == pytest.approx(1.0, abs=1e-12)

    def test_galerkin_oscillates_supg_does_not(self):
        gal, stab = vf.supg_benchmark(n=20)
        flips_g = vf._significant_flips(gal)
        flips_s = vf._significant_flips(stab)
        assert flips_g >= 10, f"Galerkin should oscillate, flips={flips_g}"
        assert flips_s <= 2, f"SUPG should be near-monotone, flips={flips_s}"

    def test_suite_checks_pass(self):
        for c in vf.supg_suite():
            assert c.passed, c.line()

    def test_moderate_peclet_needs_no_rescue(self):
        # at element Peclet 0.5 plain Galerkin is already clean
        gal, _ = vf.supg_benchmark(n=20, peclet=0.5)
        assert np.all(np.diff(gal) > -1e-9), \
            "low-Peclet Galerkin profile should be monotone"


class TestManufacturedFields:
    def test_wave_derivatives_match_fd(self):
        w = vf._Wave(70.0, 18.0, 11.1, 0.5, 0.0075,
                     s=lambda t: 0.5 * (1 - np.cos(np.pi * t / 8.0)),
                     ds=lambda t: 0.5 * np.pi / 8.0 * np.sin(np.pi * t / 8.0))
        r, z, t = 0.11, 0.004, 2.5
        for name, analytic, axis in (
                ("d_r", w.d_r(r, z, t), 0),
                ("d_z", w.d_z(r, z, t), 1),
                ("d_t", w.d_t(r, z, t), 2)):
            delta = 1e-6
            args = [r, z, t]
            args[axis] += delta
            up = w(*args)
            args[axis] -= 2 * delta
            dn = w(*args)
            fd = (up - dn) / (2 * delta)
            assert analytic == pytest.approx(fd, rel=1e-6), \
                f"{name} disagrees with finite difference"

    def test_fields_stay_physical(self):
        sol = vf._mms_solution(transient=False)
        r = np.linspace(0.0, vf._MMS_R, 30)[None, :]
        z = np.linspace(0.0, vf._MMS_Z, 30)[:, None]
        h = sol.h_field(r, z, 0.0)
        a = sol.a_field(r, z, 0.0)
        t = sol.t_field(r, z, 0.0)
        assert np.all(h > 0.0) and np.all(a > 0.0)
        assert np.all(t > 40.0) and np.all(t < 100.0)


class TestManufacturedSource:
    def test_residual_vanishes_under_refinement(self):
        """The independently computed source must annihilate the
        discrete operator at the exact solution, better on finer meshes."""
        sol = vf._mms_solution(transient=False)
        norms = []
        for n in (5, 10):
            system = vf._mms_system(n, sol, stabilization=False)
            u = sol.state(system.mesh, 0.0)
            norms.append(rms(system.residual(u, None, 0.0)))
        assert norms[0] < 1e-6, f"coarse-mesh defect too large: {norms[0]:.2e}"
        assert norms[0] / norms[1] > 4.0, \
            f"defect should shrink at least quadratically: {norms}"

    def test_source_shape_matches_quadrature(self):
        sol = vf._mms_solution(transient=False)
        system = vf._mms_system(4, sol)
        src = vf.manufactured_source(system, sol, 0.0)
        assert src.shape == system.gp_xy.shape[:2] + (3,)


class TestSteadyLimit:
    """Backward Euler at dt = inf is the steady manufactured problem."""

    @pytest.fixture(scope="class")
    def steady(self):
        sol = vf._mms_solution(transient=False)
        system = vf._mms_system(5, sol, stabilization=False)
        return system, sol.state(system.mesh, 0.0)

    def test_infinite_step_drops_the_storage(self, steady):
        system, u = steady
        rng = np.random.default_rng(3)
        u_prev = u + 0.1 * rng.standard_normal(u.size)
        assert np.array_equal(system.residual(u, (u - u_prev) / np.inf, 0.0),
                              system.residual(u, None, 0.0))

    def test_dt_inf_solve_meets_the_newton_target(self, steady):
        system, u_exact = steady
        cfg = SolverConfig()
        r0 = rms(system.residual(u_exact, None, 0.0))
        u, iters, r_final = newton_solve(system, u_exact, np.inf, 0.0, cfg)
        assert iters >= 1
        assert r_final <= max(cfg.newton_tol_rel * r0, cfg.newton_tol_abs)
        assert r_final == rms(system.residual(u, None, 0.0))


class TestMmsConvergence:
    def test_spatial_orders_second(self):
        errors, orders = vf.mms_spatial_study((5, 10, 20),
                                              stabilization=False)
        assert errors[0] > errors[-1], "error should decrease with h"
        assert 1.7 < orders[-1] < 2.3, \
            f"spatial order off: {orders}"

    def test_temporal_orders_first(self):
        # small configuration: a coarse smoke band (the acceptance run
        # measures the production configuration against 1 +/- 0.2)
        diffs, orders = vf.mms_temporal_study(
            dts=(0.25, 0.125, 0.0625, 0.03125), n=5, t_final=4.0)
        assert all(a > b for a, b in zip(diffs, diffs[1:])), \
            f"dt differences should decay monotonically: {diffs}"
        assert 0.8 < np.mean(orders) < 1.4, \
            f"temporal order off: {orders}"


class TestConservationSuite:
    def test_small_case_passes(self, small_scenario):
        checks = vf.conservation_suite(scenario=small_scenario)
        assert len(checks) == 2
        for c in checks:
            assert c.passed, c.line()

    def test_values_populated(self, small_scenario):
        sealed, open_ = vf.conservation_suite(scenario=small_scenario)
        assert np.isfinite(sealed.value) and sealed.value < sealed.threshold
        assert np.isfinite(open_.value) and open_.value < open_.threshold


class TestJacobianSuite:
    def test_short_trajectory_passes(self):
        traj = vf.press_trajectory(t_end=3.0)
        checks = vf.jacobian_suite(trajectory=traj, n_checks=4)
        assert len(checks) == 1
        assert checks[0].passed, checks[0].line()
        assert checks[0].value < 1e-6, \
            f"directional error unexpectedly coarse: {checks[0].value:.2e}"

    def test_rejects_empty_trajectory(self):
        traj = vf.press_trajectory(t_end=3.0)
        system, result = traj
        result.states = result.states[:1]
        with pytest.raises(ValueError, match="at least one step"):
            vf.jacobian_suite(trajectory=(system, result))


class TestRunSuite:
    def test_dispatch_properties(self):
        checks = vf.run_suite("properties")
        assert all(c.passed for c in checks)

    def test_unknown_suite_lists_names(self):
        with pytest.raises(ValueError) as err:
            vf.run_suite("nonsense")
        msg = str(err.value)
        for name in vf.SUITE_NAMES:
            assert name in msg, f"error should list suite {name!r}: {msg}"
