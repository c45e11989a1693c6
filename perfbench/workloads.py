"""The four workloads of the press benchmark.

Each workload builds its inputs from the seed, runs one operation the
way ``hotpress run`` or ``hotpress verify`` does it, and checks the
outputs with :mod:`checks`.  See README.md for why each was chosen.
"""

import random
import shutil
import time
from dataclasses import dataclass, replace

import numpy as np

import checks
from hotpress import cli, scenario, verification

# Seed 0 reproduces the preset.  Other seeds draw the initial moisture
# and the platen hold temperature from these ranges.  Moisture stays at
# or below the rim equilibrium (11 %): a wetter board dries at the rim
# and cools below its initial temperature, which the bounds check rules
# out.
H0_RANGE = (10.8, 11.0)        # %
HOLD_RANGE = (155.0, 165.0)    # degC


def board_inputs(seed):
    """(initial moisture %, platen hold temperature degC) for a seed."""
    if seed == 0:
        return 11.0, 160.0
    rng = random.Random(seed)
    return round(rng.uniform(*H0_RANGE), 3), round(rng.uniform(*HOLD_RANGE), 2)


@dataclass(frozen=True)
class Press:
    """A ``hotpress run`` of the humphrey board with changed knobs."""

    n: int                 # elements per side
    dt: float              # s
    t_end: float           # s
    sealed: bool
    scheme: str
    output_times: tuple | None  # None keeps the preset's

    def build(self, seed):
        """The scenario this workload integrates for ``seed``."""
        base = scenario.humphrey_preset()
        h0, hold = board_inputs(seed)
        solver = replace(base.solver, dt=self.dt, t_end=self.t_end,
                         scheme=self.scheme)
        if self.output_times is not None:
            solver = replace(solver, output_times=self.output_times)
        temps = base.schedule.temperatures[:-1] + (hold,)
        return replace(base, n_r=self.n, n_z=self.n, h0=h0,
                       sealed_radius=self.sealed, solver=solver,
                       schedule=replace(base.schedule, temperatures=temps))

    def setup(self, seed):
        """Everything before the first time step: scenario, mesh,
        system and initial state."""
        sc = self.build(seed)
        system = scenario.build_system(sc)
        return scenario.initial_state(sc, system.mesh)

    def run(self, seed, out, log=None):
        """Integrate and write the outputs as ``hotpress run`` does.

        Returns (seconds of integration and writing, outputs to check).
        """
        sc = self.build(seed)
        _clear(out)
        started = time.perf_counter()
        # every accepted state is kept for the Newton-target check
        system, result = scenario.run_scenario(sc, log=log, store_all=True)
        for t in sorted(result.outputs):
            cli._write_snapshot(out / cli._snapshot_name(t), system,
                                result.outputs[t], t)
        cli._write_profiles(out, system, result)
        cli._write_log(out / "run.log", result)
        return time.perf_counter() - started, (sc, system, result)

    def check(self, out, outputs):
        """Raise checks.CheckError unless every output check passes."""
        sc, system, result = outputs
        cfg = sc.solver
        times = [t for t in cfg.output_times if t <= cfg.t_end]
        checks.check_outputs_present(out, times)
        breakpoints = sc.schedule.breakpoints
        for t in times:
            t_file, cols = checks.read_snapshot(out / checks.snapshot_name(t))
            if abs(t_file - t) > 1e-6:
                raise checks.CheckError(f"snapshot for t={t:g} holds "
                                        f"t={t_file:g}")
            checks.check_platen(cols, t, breakpoints)
            checks.check_bounds(cols, t, sc.t0,
                                checks.schedule_temperature(breakpoints, t))
            if not sc.sealed_radius:
                checks.check_rim(cols, t, sc.ambient)

        r, z = system.mesh.nodes[:, 0], system.mesh.nodes[:, 1]
        rho_s = sc.material.rho_s
        if sc.sealed_radius:
            moisture = np.array(result.states)[:, 1::3]
            checks.check_sealed_water(
                checks.total_water(r, z, moisture, rho_s))
            return
        water = checks.total_water(r, z, result.states[0][1::3], rho_s)
        checks.check_open_balance(result.water_balance, result.dt_used,
                                  water)
        finals = [float(line.rsplit("resid=", 1)[1]) for line in result.log
                  if line.startswith("step ")]
        initials = []
        for k in range(len(result.dt_used)):
            g0 = system.residual(result.states[k],
                                 np.zeros(system.n_dofs), result.times[k + 1])
            initials.append(float(np.sqrt(np.mean(g0 * g0))))
        checks.check_newton_targets(finals, initials, cfg.newton_tol_rel,
                                    cfg.newton_tol_abs)


class Mms:
    """``hotpress verify mms``: spatial and temporal convergence orders.

    The suite has no inputs, so the seed changes nothing.
    """

    def setup(self, seed):
        return None

    def run(self, seed, out, log=None):
        started = time.perf_counter()
        results = verification.run_suite("mms")
        return time.perf_counter() - started, results

    def check(self, out, outputs):
        by_name = {c.name: c for c in outputs}
        space = by_name["mms spatial order"]
        temporal = by_name["mms temporal order"]
        checks.check_orders(space.value, temporal.value)
        if not (space.passed and temporal.passed):
            raise checks.CheckError("the suite reports a failed check")


def _clear(out):
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)


WORKLOADS = {
    # the shipped preset (20 x 20, open rim, dt = 1 s) over its first 10 s
    "press-humphrey": Press(20, 1.0, 10.0, False, "implicit", None),
    # the same board on a 60 x 60 refinement mesh over its first 2 s
    "press-fine": Press(60, 1.0, 2.0, False, "implicit", None),
    # forward Euler on a sealed 10 x 10 board, 3,334 steps
    "explicit-sealed": Press(10, 3e-5, 0.1, True, "explicit", (0.05, 0.1)),
    "verify-mms": Mms(),
}
