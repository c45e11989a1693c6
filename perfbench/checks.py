"""Output checks of the press benchmark, computed apart from the program.

Every check takes plain arrays (or an output directory) and raises
:class:`CheckError` with the offending numbers when the output is wrong.
The reference values come from formulas written out again here (platen
schedule, sorption equilibrium of the rim, ideal-gas law, r-weighted
nodal volumes) or from properties the method must have (water
conservation, Newton targets, convergence orders); none of them is a
stored copy of an earlier output.
"""

import math
import re
from pathlib import Path

import numpy as np

KELVIN = 273.15
R_GAS = 8314.0          # J/(kmol K)
MM_AIR = 28.96          # kg/kmol
# the board's sorption surface is the published Hailwood-Horrobin surface
# scaled so that EMC(30 degC, 65 % RH) = 11 %
ISOTHERM_ANCHOR = (30.0, 65.0, 11.0)
ISOTHERM_T_RANGE = (0.0, 115.0)  # degC, validity clamp of the polynomials

PROFILE_NAMES = tuple(f"profile_{key}_{line}.txt"
                      for line in ("vs_z_axis", "vs_z_rim", "vs_r_midplane",
                                   "vs_r_platen")
                      for key in ("T", "H"))


class CheckError(AssertionError):
    """An output of the program is wrong."""


# ---------------------------------------------------------------------------
# reference formulas
# ---------------------------------------------------------------------------

def schedule_temperature(breakpoints, t):
    """Platen temperature at time t from ((t, T), ...) breakpoints."""
    pts = sorted(breakpoints)
    if t <= pts[0][0]:
        return pts[0][1]
    for (t_a, temp_a), (t_b, temp_b) in zip(pts, pts[1:]):
        if t <= t_b:
            return temp_a + (temp_b - temp_a) * (t - t_a) / (t_b - t_a)
    return pts[-1][1]


def saturation_pressure(t_c):
    """Saturated vapor pressure [N/m2] of the board model (log-linear fit)."""
    return 10.0 ** (10.745 - 2141.0 / (np.asarray(t_c, dtype=float) + KELVIN))


def _raw_emc(t_c, hr_pct):
    """Unscaled Hailwood-Horrobin two-hydrate surface, EMC in %."""
    lo, hi = ISOTHERM_T_RANGE
    f = np.clip(np.asarray(t_c, dtype=float), lo, hi) * 1.8 + 32.0
    x = np.asarray(hr_pct, dtype=float) / 100.0
    w = 330.0 + 0.452 * f + 0.00415 * f * f
    k = 0.791 + 4.63e-4 * f - 8.44e-7 * f * f
    k1 = 6.34 + 7.75e-4 * f - 9.35e-5 * f * f
    k2 = 1.09 + 2.84e-2 * f - 9.04e-5 * f * f
    kx = k * x
    hydrate = (k1 * kx + 2.0 * k1 * k2 * kx * kx) / (1.0 + k1 * kx
                                                    + k1 * k2 * kx * kx)
    solution = kx / (1.0 - kx)
    return 1800.0 / w * (solution + hydrate)


def equilibrium_moisture(t_c, hr_pct):
    """EMC [%] of the calibrated board surface at T [degC], RH [%]."""
    t_ref, hr_ref, emc_ref = ISOTHERM_ANCHOR
    return emc_ref / _raw_emc(t_ref, hr_ref) * _raw_emc(t_c, hr_pct)


def rim_targets(t_rim, ambient):
    """Moisture [%] and air density [kg/m3] in equilibrium with the
    ambient air (T_atm degC, RH_atm %, P_atm N/m2) at rim temperatures."""
    t_atm, hr_atm, p_atm = ambient
    p_v_atm = hr_atm / 100.0 * saturation_pressure(t_atm)
    t_rim = np.asarray(t_rim, dtype=float)
    hr = np.clip(100.0 * p_v_atm / saturation_pressure(t_rim), 0.0, 100.0)
    h = equilibrium_moisture(t_rim, hr)
    rho_a = (p_atm - p_v_atm) * MM_AIR / (R_GAS * (t_rim + KELVIN))
    return h, rho_a


def nodal_volumes(r, z):
    """Lumped r-weighted volume (integral of N_a r dA, 2 pi dropped) of
    every node of a structured bilinear mesh given by its coordinates."""
    r = np.asarray(r, dtype=float)
    z = np.asarray(z, dtype=float)
    rs = np.unique(r)
    zs = np.unique(z)
    if rs.size * zs.size != r.size:
        raise CheckError("node coordinates do not form a structured grid")
    dr = np.diff(rs)
    dz = np.diff(zs)
    # integral of the linear hat times r over each radial cell, per end
    left = dr * (2.0 * rs[:-1] + rs[1:]) / 6.0
    right = dr * (rs[:-1] + 2.0 * rs[1:]) / 6.0
    radial = np.zeros(rs.size)
    radial[:-1] += left
    radial[1:] += right
    axial = np.zeros(zs.size)
    axial[:-1] += dz / 2.0
    axial[1:] += dz / 2.0
    return radial[np.searchsorted(rs, r)] * axial[np.searchsorted(zs, z)]


def total_water(r, z, h_pct, rho_s):
    """Lumped water content rho_s * sum(V_j H_j) / 100 of a state, or of
    each row of a stack of states."""
    return rho_s * (np.asarray(h_pct, dtype=float)
                    @ nodal_volumes(r, z)) / 100.0


# ---------------------------------------------------------------------------
# reading the written outputs
# ---------------------------------------------------------------------------

def snapshot_name(t):
    """File name the run writes for the snapshot at time t."""
    return f"snapshot_t{t:09.3f}s.txt"


def read_snapshot(path):
    """(t, columns dict) of one snapshot file."""
    path = Path(path)
    with path.open() as fh:
        header = fh.readline()
    match = re.match(r"#\s*t=([0-9.eE+-]+) s;", header)
    if match is None:
        raise CheckError(f"{path.name}: no time in header {header!r}")
    data = np.loadtxt(path, ndmin=2)
    names = ("r", "z", "T", "H", "rho_a", "P_v", "P", "V_r", "V_z")
    if data.shape[1] != len(names):
        raise CheckError(f"{path.name}: {data.shape[1]} columns, "
                         f"expected {len(names)}")
    return float(match.group(1)), dict(zip(names, data.T))


def check_outputs_present(out_dir, times):
    """One snapshot per output time, the eight profiles and the log are
    written, and every number in them is finite."""
    out_dir = Path(out_dir)
    wanted = [snapshot_name(t) for t in times] + list(PROFILE_NAMES)
    missing = [name for name in wanted if not (out_dir / name).is_file()]
    if not (out_dir / "run.log").is_file():
        missing.append("run.log")
    if missing:
        raise CheckError(f"missing outputs: {', '.join(missing)}")
    for name in wanted:
        data = np.loadtxt(out_dir / name, ndmin=2)
        if data.size == 0 or not np.all(np.isfinite(data)):
            raise CheckError(f"{name}: empty or non-finite values")


# ---------------------------------------------------------------------------
# checks on one output time
# ---------------------------------------------------------------------------

def check_platen(cols, t, breakpoints, atol=1e-6):
    """Platen nodes (z = max z) carry the scheduled temperature."""
    on = cols["z"] == cols["z"].max()
    want = schedule_temperature(breakpoints, t)
    err = float(np.max(np.abs(cols["T"][on] - want)))
    if not err <= atol:
        raise CheckError(f"t={t:g}: platen temperature off the schedule "
                         f"value {want:.6f} by {err:.3e} degC")


def check_rim(cols, t, ambient, rtol=1e-8):
    """Rim nodes (r = max r) hold the ambient-equilibrium moisture and
    air density at their own temperature."""
    on = cols["r"] == cols["r"].max()
    h_want, a_want = rim_targets(cols["T"][on], ambient)
    for label, got, want in (("moisture", cols["H"][on], h_want),
                             ("air density", cols["rho_a"][on], a_want)):
        err = float(np.max(np.abs(got - want) / np.abs(want)))
        if not err <= rtol:
            raise CheckError(f"t={t:g}: rim {label} off its equilibrium "
                             f"value by {err:.3e} relative")


def check_bounds(cols, t, t_initial, t_platen, atol=1e-6, air_floor=-0.05):
    """T within [initial, platen] temperature, H >= 0, rho_a >= floor."""
    temp, h, rho_a = cols["T"], cols["H"], cols["rho_a"]
    if not (temp.min() >= t_initial - atol and temp.max() <= t_platen + atol):
        raise CheckError(f"t={t:g}: temperature range [{temp.min():.6f}, "
                         f"{temp.max():.6f}] leaves [{t_initial:g}, "
                         f"{t_platen:.6f}] degC")
    if not h.min() >= 0.0:
        raise CheckError(f"t={t:g}: negative moisture {h.min():.3e} %")
    if not rho_a.min() >= air_floor:
        raise CheckError(f"t={t:g}: air density {rho_a.min():.3e} kg/m3 "
                         f"below {air_floor:g}")


# ---------------------------------------------------------------------------
# checks across steps
# ---------------------------------------------------------------------------

def check_open_balance(balance, dt_used, water, tol=1e-8):
    """Per-step |storage - rim influx| * dt stays within tol of the water."""
    if len(balance) != len(dt_used) or not balance:
        raise CheckError(f"{len(balance)} balance rows for "
                         f"{len(dt_used)} steps")
    worst = max(abs(storage - influx) * dt
                for (_, storage, influx), dt in zip(balance, dt_used))
    if not worst <= tol * water:
        raise CheckError(f"per-step water imbalance {worst / water:.3e} of "
                         f"the total water exceeds {tol:g}")


def check_newton_targets(finals, initials, tol_rel, tol_abs, slack=1e-3):
    """Each step's logged final residual meets max(tol_rel r0, tol_abs).

    ``slack`` covers the four significant digits the log prints.
    """
    if len(finals) != len(initials) or not finals:
        raise CheckError(f"{len(finals)} logged residuals for "
                         f"{len(initials)} steps")
    for k, (final, r0) in enumerate(zip(finals, initials)):
        target = max(tol_rel * r0, tol_abs)
        if not final <= target * (1.0 + slack):
            raise CheckError(f"step {k + 1}: final residual {final:.3e} "
                             f"misses its target {target:.3e}")


def check_sealed_water(totals, tol=1e-12):
    """The sealed board keeps its total water to tol relative."""
    totals = np.asarray(totals, dtype=float)
    drift = float(np.max(np.abs(totals - totals[0])) / abs(totals[0]))
    if not drift <= tol:
        raise CheckError(f"sealed water drifted by {drift:.3e} relative "
                         f"(tol {tol:g})")


def check_orders(space, time, space_band=(1.7, 2.3), time_band=(0.8, 1.2)):
    """Observed manufactured-solution orders lie in their bands."""
    for label, value, (lo, hi) in (("space", space, space_band),
                                   ("time", time, time_band)):
        if not (math.isfinite(value) and lo <= value <= hi):
            raise CheckError(f"observed {label} order {value:.3f} outside "
                             f"[{lo:g}, {hi:g}]")
