"""End-to-end acceptance gate.

Each test checks one headline claim about the simulator and prints a
single PASS/FAIL line with the measured numbers (run with ``-s`` to see
the lines as they appear).  The expensive 400 s press run is integrated
once and shared by every test that samples it.
"""

import re

import numpy as np
import pytest

from hotpress.assembly import P_VAPOR, state_fields
from hotpress.mesh import EXTERNAL, PLATEN
from hotpress.scenario import humphrey_preset, run_scenario
from hotpress.solver import LUFactor, fd_jacobian, rms
from hotpress.verification import (
    conservation_suite,
    jacobian_suite,
    mms_suite,
    properties_suite,
    supg_suite,
)

pytestmark = pytest.mark.slow


def _report(name, ok, detail):
    line = f"{'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    return line


class _CountingLU:
    """A SuperLU factor that counts its back-substitutions."""

    def __init__(self, lu):
        self.lu, self.solves = lu, 0

    def solve(self, rhs):
        self.solves += 1
        return self.lu.solve(rhs)


@pytest.fixture(scope="module")
def press_run():
    """The full 400 s press case with every accepted step stored."""
    system, result = run_scenario(humphrey_preset(), store_all=True)
    return system, result


class TestAcceptance:
    def test_newton_performance_on_the_press_run(self, press_run):
        system, res = press_run
        sc = humphrey_preset()
        assert (sc.solver.dt, sc.solver.scheme) == (1.0, "implicit"), \
            "the preset must integrate with dt = 1 s implicitly"

        mean_iters = res.mean_newton_iters
        wall = res.wall_time

        # convergence depth: final residual of sampled steps (from the
        # log) against a freshly evaluated initial residual
        tol_rel = sc.solver.newton_tol_rel
        tol_abs = sc.solver.newton_tol_abs
        finals = [float(re.search(r"resid=([0-9.e+-]+)", line).group(1))
                  for line in res.log if line.startswith("step ")]
        sampled = np.linspace(1, len(res.dt_used), 10, dtype=int)
        deep = 0
        for i in sampled:
            r0 = rms(system.residual(res.states[i - 1],
                                     np.zeros_like(res.states[i - 1]),
                                     res.times[i]))
            if finals[i - 1] <= max(tol_rel * r0, 1.05 * tol_abs):
                deep += 1

        ok = mean_iters <= 6.0 and wall < 300.0 and deep == len(sampled)
        line = _report(
            "newton performance", ok,
            f"mean {mean_iters:.2f} iterations/step (<= 6), wall "
            f"{wall:.0f} s (< 300), {deep}/{len(sampled)} sampled steps "
            f"cut the residual {tol_rel:g}-fold or to the {tol_abs:g} floor")
        assert ok, line

    def test_condensation_wave_raises_interior_moisture(self, press_run):
        system, res = press_run
        sc = humphrey_preset()
        mesh = system.mesh
        interior = np.setdiff1d(
            np.arange(mesh.n_nodes),
            np.union1d(mesh.node_tags[PLATEN], mesh.node_tags[EXTERNAL]))
        peak_t, peak_h = 0.0, -np.inf
        for t in sorted(res.outputs):
            h_max = float(state_fields(res.outputs[t])[1][interior].max())
            if h_max > peak_h:
                peak_t, peak_h = t, h_max
        ok = peak_h >= sc.h0 + 0.5
        line = _report(
            "condensation wave", ok,
            f"interior moisture peaks at {peak_h:.2f}% (t = {peak_t:g} s) "
            f"vs the {sc.h0:g}% initial value (needs >= +0.5 points)")
        assert ok, line

    def test_vapor_pressure_contrast_across_the_panel(self, press_run):
        system, res = press_run
        mesh = system.mesh
        u = res.outputs[400.0]
        p_vapor = system.nodal_state(u)[:, P_VAPOR]
        core = p_vapor[mesh.grid[0, 0]]
        rim = p_vapor[mesh.grid[0, -1]]
        ratio = float(core / rim)
        ok = ratio >= 10.0
        line = _report(
            "vapor-pressure contrast", ok,
            f"P_v {core:.3e} N/m2 at the core vs {rim:.3e} at the "
            f"external-radius contour (mid-plane) at t = 400 s: "
            f"factor {ratio:.1f} (needs >= 10)")
        assert ok, line

    def test_temperature_qualitative_behavior(self, press_run):
        """Platen nodes follow the schedule, no node ever exceeds the
        platen, and the center-plane node heats monotonically up to its
        peak; any decline after the peak must be evaporative cooling, with
        the core drying (moisture at 400 s below its value at the peak)."""
        system, res = press_run
        mesh = system.mesh
        platen_nodes = mesh.node_tags[PLATEN]
        center = mesh.grid[0, 0]

        temps = np.array([state_fields(u)[0] for u in res.states])
        t_platen = np.array([float(system.platen_temperature(t))
                             for t in res.times])
        track_err = float(np.max(np.abs(temps[:, platen_nodes]
                                        - t_platen[:, None])))
        excess_by_step = temps.max(axis=1) - t_platen
        i_hot = int(excess_by_step.argmax())
        excess = float(excess_by_step[i_hot])
        hot_node = int(temps[i_hot].argmax())

        t_center = temps[:, center]
        i_peak = int(t_center.argmax())
        rise = np.diff(t_center[:i_peak + 1])
        worst_dip = float(rise.min()) if rise.size else 0.0
        decline = float(t_center[i_peak] - t_center[-1])

        def core_h_pv(u):
            return (state_fields(u)[1][center],
                    system.nodal_state(u)[center, P_VAPOR])

        h_peak, pv_peak = core_h_pv(res.states[i_peak])
        h_end, pv_end = core_h_pv(res.states[-1])

        track_ok = track_err <= 1e-9
        ceil_ok = excess <= 1e-9
        mono_ok = worst_dip >= -1e-6
        evap_ok = decline <= 0.0 or h_end < h_peak
        ok = track_ok and ceil_ok and mono_ok and evap_ok

        detail = (
            f"platen nodes track the schedule (max error {track_err:.1e} "
            f"degC); max node excess over the platen {excess:.1e} degC")
        if not ceil_ok:
            r_hot, z_hot = mesh.nodes[hot_node]
            detail += (f" (node at r = {r_hot:.4f} m, z = {z_hot:.4f} m, "
                       f"t = {res.times[i_hot]:g} s)")
        detail += (
            f"; center-plane temperature rises to "
            f"{t_center[i_peak]:.2f} degC at t = {res.times[i_peak]:g} s "
            f"(largest step drop before the peak {min(worst_dip, 0.0):.1e} "
            f"degC) and declines {decline:.2f} degC by "
            f"{res.times[-1]:g} s while core H goes {h_peak:.3f} -> "
            f"{h_end:.3f} % and core P_v {pv_peak:.4e} -> {pv_end:.4e} N/m2")
        line = _report("temperature qualitative behavior", ok, detail)
        assert ok, line

    def test_one_back_substitution_at_hold_states(self, press_run):
        """At hold states, where the linear residual of a solve cannot get
        below about 1e-12 of the right-hand side, one back-substitution
        through the factor matches a dense solve of the Newton matrix."""
        system, res = press_run
        times = np.array(res.times)
        rng = np.random.default_rng(20261019)
        worst, counts = 0.0, []
        for t in (62.0, 80.0, 200.0):
            i = int(np.argmin(np.abs(times - t)))
            jac = fd_jacobian(system, res.states[i], times[i],
                              times[i] - times[i - 1], res.states[i - 1])
            factor = LUFactor(jac, system.newton_order)
            factor.lu = _CountingLU(factor.lu)
            b = rng.standard_normal(system.n_dofs)
            x = factor.solve(b)
            dense = np.linalg.solve(jac.toarray(), b)
            worst = max(worst, float(np.linalg.norm(x - dense)
                                     / np.linalg.norm(dense)))
            counts.append(factor.lu.solves)
        ok = worst <= 1e-12 and counts == [1, 1, 1]
        line = _report(
            "linear solve at hold states", ok,
            f"at t = 62, 80 and 200 s the factored solve is within "
            f"{worst:.1e} of a dense solve (<= 1e-12) with "
            f"{'/'.join(map(str, counts))} back-substitutions (1 each)")
        assert ok, line

    def test_manufactured_solution_convergence_orders(self):
        checks = mms_suite()
        ok = all(c.passed for c in checks)
        line = _report(
            "manufactured-solution convergence", ok,
            "; ".join(c.detail for c in checks))
        assert ok, line

    def test_water_conservation_sealed_and_open(self, press_run):
        checks = conservation_suite(open_run=press_run)
        ok = all(c.passed for c in checks)
        line = _report(
            "water conservation", ok,
            "; ".join(c.detail for c in checks))
        assert ok, line

    def test_jacobian_directional_consistency(self, press_run):
        checks = jacobian_suite(trajectory=press_run)
        ok = all(c.passed for c in checks)
        line = _report(
            "jacobian consistency", ok,
            "; ".join(c.detail for c in checks))
        assert ok, line

    def test_property_golden_values(self):
        checks = properties_suite()
        ok = all(c.passed for c in checks)
        n_pass = sum(c.passed for c in checks)
        line = _report(
            "property golden values", ok,
            f"{n_pass}/{len(checks)} spot checks in tolerance: "
            + "; ".join(c.detail for c in checks))
        assert ok, line

    def test_stabilization_benchmark(self):
        checks = supg_suite()
        ok = all(c.passed for c in checks)
        line = _report(
            "advection stabilization", ok,
            "; ".join(c.detail for c in checks))
        assert ok, line
