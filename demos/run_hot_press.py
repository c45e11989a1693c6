# -*- coding: utf-8 -*-
"""
========================
Hot-press demonstration
========================

Integrates a reduced version of the built-in press case (coarser mesh,
first 120 s of the cycle) and reports how the temperature, moisture and
gas-pressure fields develop.  With matplotlib installed it also saves
``hot_press_profiles.png``.  The full-size case is available from the
command line: ``hotpress run --preset humphrey --out <dir>``.
"""

from dataclasses import replace

import numpy as np

from hotpress.assembly import state_fields
from hotpress.scenario import SolverConfig, humphrey_preset, run_scenario

################################################################################
# set up: the preset geometry/schedule on a 10x10 mesh, first 120 s

base = humphrey_preset()
scenario = replace(
    base, n_r=10, n_z=10,
    solver=SolverConfig(dt=1.0, t_end=120.0,
                        output_times=(10.0, 30.0, 60.0, 120.0)))
print(f"panel: external radius {scenario.r_ext} m, "
      f"half thickness {scenario.half_thickness} m")
print(f"press: {scenario.schedule.breakpoints}  (degC over s)")
print(f"initial: T={scenario.t0} degC, H={scenario.h0}%, "
      f"rho_a={scenario.rho_a0} kg/m3\n")

system, result = run_scenario(scenario, log=print, store_all=True)

################################################################################
# the story at the panel core (axis, mid-plane) and under the platen

mesh = system.mesh
core = mesh.node_index(0, 0)
under_platen = mesh.node_index(0, mesh.n_z - 1)

print("\n  time    T_core   T_sub-platen   H_core   P_core")
print("   [s]    [degC]      [degC]         [%]    [N/m2]")
for t in [0.0] + sorted(result.outputs):
    u = result.states[0] if t == 0.0 else result.outputs[t]
    t_c, h, _ = state_fields(u)
    p_core = system.nodal_state(u)["p_total"][core]
    print(f"  {t:5.0f}   {t_c[core]:6.2f}     {t_c[under_platen]:7.2f}"
          f"      {h[core]:6.2f}   {p_core:8.0f}")

t_c, h, rho_a = state_fields(result.states[-1])
print(f"\nafter {result.times[-1]:.0f} s: "
      f"T in [{t_c.min():.1f}, {t_c.max():.1f}] degC, "
      f"H in [{h.min():.2f}, {h.max():.2f}] %")
print(f"{len(result.dt_used)} steps, "
      f"mean {result.mean_newton_iters:.2f} Newton iterations/step")

################################################################################
# optional figure: through-thickness profiles at the axis over time

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not installed; skipping the figure")
else:
    axis_nodes = mesh.structured_line(ir=0)
    z = mesh.nodes[axis_nodes, 1] * 1e3  # mm
    fig, (ax_t, ax_h) = plt.subplots(1, 2, figsize=(9, 4))
    for t in [0.0] + sorted(result.outputs):
        u = result.states[0] if t == 0.0 else result.outputs[t]
        t_c, h, _ = state_fields(u)
        ax_t.plot(z, t_c[axis_nodes], label=f"t={t:g} s")
        ax_h.plot(z, h[axis_nodes])
    ax_t.set_xlabel("z [mm] (0 = mid-plane)")
    ax_t.set_ylabel("T [degC]")
    ax_t.set_title("temperature at the axis")
    ax_t.legend(fontsize=8)
    ax_h.set_xlabel("z [mm] (0 = mid-plane)")
    ax_h.set_ylabel("H [%]")
    ax_h.set_title("moisture at the axis")
    fig.tight_layout()
    fig.savefig("hot_press_profiles.png", dpi=120)
    print("saved hot_press_profiles.png")
