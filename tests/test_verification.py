"""Tests for the verification oracles (small, fast configurations)."""

import json
from dataclasses import asdict, replace

import numpy as np
import pytest

from hotpress.assembly import IDX_A, N_VARS
from hotpress.scenario import SolverConfig, humphrey_preset
from hotpress.solver import newton_solve, rms
from hotpress import verification as vf


# the temporal sweep of test_temporal_orders_first
SWEEP_DTS = (0.25, 0.125, 0.0625, 0.03125)
SWEEP_T_FINAL = 4.0


@pytest.fixture(scope="module")
def temporal_sweep():
    """Differences and orders of the small temporal study, and the
    (system, solution) of each ``manufactured_source`` call it made."""
    calls = []
    original = vf.manufactured_source

    def counted(system, sol, t, *args, **kwargs):
        calls.append((system, sol))
        return original(system, sol, t, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vf, "manufactured_source", counted)
        diffs, orders = vf.mms_temporal_study(dts=SWEEP_DTS, n=5,
                                              t_final=SWEEP_T_FINAL)
    return diffs, orders, calls


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

    def test_checks_serialize_as_json(self):
        """Every check holds plain Python values, so it can be written out
        machine-readably: an open balance summed in numpy must not leave a
        ``numpy.bool`` or ``numpy.float64`` behind."""
        board = replace(humphrey_preset(), n_r=6, n_z=6,
                        solver=SolverConfig(dt=1.0, t_end=3.0))
        checks = (vf.conservation_suite(scenario=board)
                  + vf.supg_suite() + vf.properties_suite())
        assert len(checks) == 9
        for c in checks:
            assert type(c.passed) is bool, c.name
            assert json.loads(json.dumps(asdict(c)))["name"] == c.name


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
        w = vf._Wave(70.0, 18.0, 11.1, 0.5, 0.0075, period=8.0)
        r, z, t = 0.11, 0.004, 2.5
        _, *slopes = w(r, z, t)
        for axis, (name, analytic) in enumerate(zip(("d_r", "d_z", "d_t"),
                                                    slopes)):
            delta = 1e-6
            args = [r, z, t]
            args[axis] += delta
            up = w(*args)[0]
            args[axis] -= 2 * delta
            dn = w(*args)[0]
            fd = (up - dn) / (2 * delta)
            assert analytic == pytest.approx(fd, rel=1e-6), \
                f"{name} disagrees with finite difference"

    def test_fields_stay_physical(self):
        sol = vf._mms_solution(transient=False)
        r = np.linspace(0.0, vf._MMS_R, 30)[None, :]
        z = np.linspace(0.0, vf._MMS_Z, 30)[:, None]
        h = sol.h_field(r, z, 0.0)[0]
        a = sol.a_field(r, z, 0.0)[0]
        t = sol.t_field(r, z, 0.0)[0]
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
        r0 = rms(system.residual(u_exact, None, 0.0))
        u, iters, r_final = newton_solve(system, u_exact, np.inf, 0.0)
        assert iters >= 1
        assert r_final <= max(SolverConfig.newton_tol_rel * r0,
                              SolverConfig.newton_tol_abs)
        assert r_final == rms(system.residual(u, None, 0.0))


class TestMmsConvergence:
    def test_spatial_orders_second(self):
        errors, orders = vf.mms_spatial_study((5, 10, 20))
        assert errors[0] > errors[-1], "error should decrease with h"
        assert 1.7 < orders[-1] < 2.3, \
            f"spatial order off: {orders}"

    def test_temporal_orders_first(self, temporal_sweep):
        # small configuration: a coarse smoke band (the acceptance run
        # measures the production configuration against 1 +/- 0.2)
        diffs, orders, _ = temporal_sweep
        assert all(a > b for a, b in zip(diffs, diffs[1:])), \
            f"dt differences should decay monotonically: {diffs}"
        assert 0.8 < np.mean(orders) < 1.4, \
            f"temporal order off: {orders}"


class TestSourceTable:
    """The temporal study evaluates its manufactured source once, for
    every step time of its sweep, and the table matches single-time
    evaluations."""

    def test_source_evaluated_once(self, temporal_sweep):
        assert len(temporal_sweep[2]) == 1

    def test_table_matches_single_time_calls(self, temporal_sweep):
        system, sol = temporal_sweep[2][0]
        times = {(k + 1) * dt for dt in SWEEP_DTS
                 for k in range(int(round(SWEEP_T_FINAL / dt)))}
        assert set(system.sources) == times
        for t in times:
            single = vf.manufactured_source(system, sol, t)
            table = system.sources[t]
            assert table.shape == single.shape
            scale = np.abs(single).max(axis=(0, 1))
            err = (np.abs(table - single).max(axis=(0, 1)) / scale).max()
            assert err <= 1e-12, f"t={t}: relative difference {err:.1e}"

    def test_missing_time_evaluated_on_demand(self, temporal_sweep):
        system, sol = temporal_sweep[2][0]
        t = 1.0 / 3.0
        assert t not in system.sources
        try:
            src = system.source(t)
            assert t in system.sources
        finally:
            system.sources.pop(t, None)  # the table stays the sweep's
        assert np.array_equal(src, vf.manufactured_source(system, sol, t))


class TestTargetTable:
    """The manufactured system tabulates its boundary values per time,
    beside the source."""

    def test_sweep_tabulates_every_step_time(self, temporal_sweep):
        system, _ = temporal_sweep[2][0]
        assert set(system.targets) == set(system.sources)

    def test_targets_are_the_solution_on_the_boundary(self, temporal_sweep):
        system, sol = temporal_sweep[2][0]
        for t, target in system.targets.items():
            assert np.array_equal(
                target, sol.state(system.mesh, t)[system.constrained_dofs]), t

    def test_missing_time_evaluated_on_demand(self, temporal_sweep):
        system, sol = temporal_sweep[2][0]
        t = 1.0 / 3.0
        u = sol.state(system.mesh, 0.0)
        assert t not in system.targets
        try:
            target = system.constraint_targets(u, t)
            assert system.targets[t] is target
        finally:
            system.targets.pop(t, None)  # the table stays the sweep's
        assert np.array_equal(
            target, sol.state(system.mesh, t)[system.constrained_dofs])


class TestConservationSuite:
    def test_small_case_passes(self, small_scenario):
        checks = vf.conservation_suite(scenario=small_scenario)
        assert [c.name for c in checks] == [
            "sealed water conservation", "sealed air conservation",
            "open water balance"]
        for c in checks:
            assert c.passed, c.line()

    def test_values_populated(self, small_scenario):
        sealed, air, open_ = vf.conservation_suite(scenario=small_scenario)
        assert np.isfinite(sealed.value) and sealed.value < sealed.threshold
        assert np.isfinite(air.value) and air.value < 1e-12
        assert air.threshold == vf.SEALED_AIR_DRIFT_TOL == 1e-6
        assert np.isfinite(open_.value) and open_.value < open_.threshold

    @pytest.fixture(scope="class")
    def airless(self):
        return replace(humphrey_preset(), n_r=6, n_z=6, rho_a0=0.0,
                       solver=SolverConfig(dt=1.0, t_end=5.0))

    def test_board_without_air_keeps_none(self, airless):
        air = vf.conservation_suite(scenario=airless)[1]
        assert air.passed and air.value == 0.0, air.line()

    def test_air_appearing_in_airless_board_fails(self, airless,
                                                  monkeypatch):
        real = vf.run_scenario

        def leaky(scenario, **kwargs):
            system, result = real(scenario, **kwargs)
            if scenario.sealed_radius:
                result.states[-1] = result.states[-1].copy()
                result.states[-1][IDX_A::N_VARS] += 1e-30
            return system, result

        monkeypatch.setattr(vf, "run_scenario", leaky)
        air = vf.conservation_suite(scenario=airless)[1]
        assert not air.passed and air.value == np.inf, air.line()


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
