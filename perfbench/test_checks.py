"""Each output check of the benchmark accepts a valid output and rejects
a deliberately broken one.

The valid output is made up here from the checks' own reference
formulas on a small graded grid, so the test needs no simulator run.

    python3 -m pytest perfbench/test_checks.py
"""

import numpy as np
import pytest

import checks

BREAKPOINTS = ((0.0, 30.0), (72.0, 160.0))
AMBIENT = (30.0, 65.0, 101325.0)
T_INITIAL = 30.0
RHO_S = 586.0


def snapshot(t=36.0):
    """Columns of a physically admissible state on a 5 x 3 node grid."""
    rr, zz = np.meshgrid([0.0, 0.1, 0.25, 0.28, 0.2828], [0.0, 0.005, 0.0075])
    r, z = rr.ravel(), zz.ravel()
    t_platen = checks.schedule_temperature(BREAKPOINTS, t)
    temp = T_INITIAL + (t_platen - T_INITIAL) * (z / z.max()) ** 2
    h = np.full(r.size, 11.0)
    rho_a = np.full(r.size, 0.01)
    rim = r == r.max()
    h[rim], rho_a[rim] = checks.rim_targets(temp[rim], AMBIENT)
    return {"r": r, "z": z, "T": temp, "H": h, "rho_a": rho_a}


def write_outputs(out, times, cols):
    out.mkdir(exist_ok=True)
    data = np.column_stack([cols[k] for k in ("r", "z", "T", "H", "rho_a")]
                           + [np.zeros(cols["r"].size)] * 4)
    for t in times:
        np.savetxt(out / checks.snapshot_name(t), data, fmt="%.10e",
                   header=f"t={t:.6f} s; columns: r z T H rho_a P_v P V_r V_z")
    for name in checks.PROFILE_NAMES:
        np.savetxt(out / name, data[:, :3], fmt="%.10e")
    (out / "run.log").write_text("step t=1 dt=1 newton=3 resid=1.000e-16\n")


def test_schedule_is_piecewise_linear():
    assert checks.schedule_temperature(BREAKPOINTS, 36.0) == 95.0
    assert checks.schedule_temperature(BREAKPOINTS, 400.0) == 160.0


def test_rim_moisture_reproduces_the_calibration_point():
    h, _ = checks.rim_targets(30.0, AMBIENT)
    assert h == pytest.approx(11.0, rel=1e-12)


def test_rim_targets_agree_with_the_simulator():
    assembly = pytest.importorskip("hotpress.assembly")
    mesh = pytest.importorskip("hotpress.mesh")
    properties = pytest.importorskip("hotpress.properties")
    system = assembly.PressSystem(
        mesh.build_graded_mesh(0.2828, 0.0075, 2, 2),
        properties.MaterialParams(rho_s=586.0), lambda t: 30.0, AMBIENT)
    t_rim = np.array([30.0, 80.0, 120.0, 160.0])
    h, rho_a = checks.rim_targets(t_rim, AMBIENT)
    np.testing.assert_allclose(h, system.rim_moisture_bc(t_rim), rtol=1e-12)
    np.testing.assert_allclose(rho_a, system.rim_air_bc(t_rim), rtol=1e-12)


def test_nodal_volumes_sum_to_the_r_weighted_area():
    cols = snapshot()
    total = checks.nodal_volumes(cols["r"], cols["z"]).sum()
    assert total == pytest.approx(0.2828**2 / 2 * 0.0075, rel=1e-14)


def test_valid_outputs_pass(tmp_path):
    cols = snapshot()
    write_outputs(tmp_path, (1.0, 10.0), cols)
    checks.check_outputs_present(tmp_path, (1.0, 10.0))
    t, read = checks.read_snapshot(tmp_path / checks.snapshot_name(10.0))
    assert t == 10.0
    checks.check_platen(cols, 36.0, BREAKPOINTS)
    checks.check_rim(cols, 36.0, AMBIENT)
    checks.check_bounds(cols, 36.0, T_INITIAL, 95.0)
    water = checks.total_water(cols["r"], cols["z"], cols["H"], RHO_S)
    checks.check_sealed_water([water, water * (1 + 1e-14)])
    checks.check_open_balance([(1.0, 2.0, 2.0 + 1e-12)], [1.0], water)
    checks.check_newton_targets([1e-11], [0.2], 1e-10, 5e-14)
    checks.check_orders(2.03, 1.15)


def test_node_above_the_platen_is_rejected():
    cols = snapshot()
    cols["T"][6] = 95.5        # an interior node hotter than the platen
    with pytest.raises(checks.CheckError, match="temperature range"):
        checks.check_bounds(cols, 36.0, T_INITIAL, 95.0)


def test_platen_off_schedule_is_rejected():
    cols = snapshot()
    cols["T"][cols["z"] == cols["z"].max()] += 1e-3
    with pytest.raises(checks.CheckError, match="platen"):
        checks.check_platen(cols, 36.0, BREAKPOINTS)


def test_drifted_water_total_is_rejected():
    cols = snapshot()
    water = checks.total_water(cols["r"], cols["z"], cols["H"], RHO_S)
    with pytest.raises(checks.CheckError, match="drifted"):
        checks.check_sealed_water([water, water * (1 + 1e-10)])
    with pytest.raises(checks.CheckError, match="imbalance"):
        checks.check_open_balance([(1.0, 2.0, 2.0 + 1e-6 * water)], [1.0],
                                  water)


@pytest.mark.parametrize("field", ["H", "rho_a"])
def test_wrong_rim_value_is_rejected(field):
    cols = snapshot()
    rim = np.flatnonzero(cols["r"] == cols["r"].max())
    cols[field][rim[1]] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckError, match="rim"):
        checks.check_rim(cols, 36.0, AMBIENT)


def test_missing_snapshot_is_rejected(tmp_path):
    write_outputs(tmp_path, (1.0, 10.0), snapshot())
    (tmp_path / checks.snapshot_name(10.0)).unlink()
    with pytest.raises(checks.CheckError, match="missing"):
        checks.check_outputs_present(tmp_path, (1.0, 10.0))


def test_non_finite_output_is_rejected(tmp_path):
    cols = snapshot()
    cols["H"][3] = np.nan
    write_outputs(tmp_path, (1.0,), cols)
    with pytest.raises(checks.CheckError, match="non-finite"):
        checks.check_outputs_present(tmp_path, (1.0,))


def test_negative_moisture_and_air_are_rejected():
    cols = snapshot()
    cols["H"][2] = -1e-3
    with pytest.raises(checks.CheckError, match="moisture"):
        checks.check_bounds(cols, 36.0, T_INITIAL, 95.0)
    cols = snapshot()
    cols["rho_a"][2] = -0.06
    with pytest.raises(checks.CheckError, match="air density"):
        checks.check_bounds(cols, 36.0, T_INITIAL, 95.0)


def test_missed_newton_target_is_rejected():
    with pytest.raises(checks.CheckError, match="target"):
        checks.check_newton_targets([1e-9], [0.2], 1e-10, 5e-14)


def test_order_out_of_band_is_rejected():
    with pytest.raises(checks.CheckError, match="space order"):
        checks.check_orders(1.5, 1.0)
    with pytest.raises(checks.CheckError, match="time order"):
        checks.check_orders(2.0, 1.3)
