"""Tests for the constitutive correlations."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.interpolate import PchipInterpolator

import hotpress

from hotpress import properties as pr
from hotpress.assembly import KAPPA_XY, KAPPA_Z, MOB_XY, MOB_Z, derive_thermo
from hotpress.errors import ConvergenceError, DomainError
from hotpress.scenario import humphrey_preset, load_scenario, save_scenario


@pytest.fixture(scope="module")
def params():
    return pr.MaterialParams(rho_s=600.0)


class TestThermalConductivity:
    def test_reference_point(self):
        # 20 degC and 12% moisture make both correction factors exactly 1
        assert pr.thermal_conductivity_z(20.0, 12.0, 600.0) == pytest.approx(
            0.09086, abs=1e-8
        )

    def test_zero_density_leaves_offset(self):
        assert pr.thermal_conductivity_z(20.0, 12.0, 0.0) == pytest.approx(1.172e-2)

    def test_hot_dry_board(self):
        expect = 0.09086 * (1.0 - 0.03908) * (1.0 + 0.1077)
        assert pr.thermal_conductivity_z(120.0, 8.0, 600.0) == pytest.approx(
            expect, rel=1e-12
        )

    def test_temperature_factor_is_small_correction(self):
        # the per-degree coefficient must keep the factor near unity over the
        # press cycle, not scale it by orders of magnitude
        k20 = pr.thermal_conductivity_z(20.0, 12.0, 600.0)
        k160 = pr.thermal_conductivity_z(160.0, 12.0, 600.0)
        assert 1.0 < k160 / k20 < 1.2

    def test_in_plane_ratio(self, params):
        s = derive_thermo(np.array([20.0, 160.0]), 12.0, 0.5, params)
        assert np.array_equal(s[:, KAPPA_XY], 1.5 * s[:, KAPPA_Z])


class TestGasViscosity:
    @pytest.mark.parametrize(
        "t_c, expect",
        [(100.0, 2.421e-5), (0.0, 1.563e-5)],
    )
    def test_values(self, t_c, expect):
        assert pr.gas_viscosity(t_c) == pytest.approx(expect, rel=1e-3)

    def test_monotone_increasing(self):
        t = np.linspace(0.0, 200.0, 400)
        mu = pr.gas_viscosity(t)
        assert np.all(np.diff(mu) > 0), "gas viscosity must rise with temperature"


class TestPermeability:
    def test_table_points_reproduced(self):
        fit = pr.vertical_permeability(pr.PERM_DENSITY)
        rel = np.abs(fit / pr.PERM_VALUES - 1.0)
        assert np.max(rel) < 1e-12, f"worst table mismatch {np.max(rel):.1e}"

    def test_clamped_outside_range(self):
        low = pr.vertical_permeability(300.0)
        high = pr.vertical_permeability(1000.0)
        assert low == pytest.approx(64e-15, rel=1e-9)
        assert high == pytest.approx(2e-15, rel=1e-9)

    def test_monotone_non_increasing(self):
        rho = np.linspace(400.0, 900.0, 501)
        k = pr.vertical_permeability(rho)
        assert np.all(np.diff(k) <= 1e-25)

    def test_horizontal_ratio(self, params):
        s = derive_thermo(np.array([20.0, 160.0]), 12.0, 0.5, params)
        assert s[:, MOB_XY] / s[:, MOB_Z] == pytest.approx(59.0, rel=1e-14)

    def test_table_is_a_monotone_relation(self):
        # densities strictly increase; denser boards never conduct gas
        # better, and equal neighbours occur at the dense end
        assert np.all(np.diff(pr.PERM_DENSITY) > 0.0)
        assert np.all(pr.PERM_VALUES > 0.0)
        assert np.all(np.diff(pr.PERM_VALUES) <= 0.0)


class TestPchipMatchesScipy:
    """The numpy PCHIP reproduces scipy's ``PchipInterpolator`` bit for bit."""

    @pytest.mark.parametrize("table", [
        None,                                   # the model's table
        [[425, 64], [875, 2]],                  # two rows: a line
        [[425, 64], [500, 30], [875, 2]],       # three rows
        # flat runs at the low end and inside, like the table's 825/875
        [[425, 40], [475, 40], [525, 24], [575, 24], [600, 11], [675, 7]],
    ], ids=["packaged", "two-rows", "three-rows", "flat-runs"])
    def test_bit_identical(self, table):
        if table is None:
            dens, perm = pr.PERM_DENSITY, pr.PERM_VALUES
        else:
            table = np.array(table, dtype=float)
            dens, perm = table[:, 0], table[:, 1] * 1e-15
        log_k = np.log10(perm)
        oracle = PchipInterpolator(dens, log_k, extrapolate=False)
        rho = np.concatenate([dens, np.linspace(dens[0], dens[-1], 100_001)])
        coef = pr.pchip_coefficients(dens, log_k)
        assert np.array_equal(coef, oracle.c)
        assert np.array_equal(pr.pchip_evaluate(dens, coef, rho), oracle(rho))

    def test_board_permeability_bit_identical(self):
        dens = pr.PERM_DENSITY
        oracle = PchipInterpolator(dens, np.log10(pr.PERM_VALUES),
                                   extrapolate=False)
        rho = np.concatenate([dens, np.linspace(dens[0], dens[-1], 100_001)])
        assert np.array_equal(pr.vertical_permeability(rho),
                              10.0 ** oracle(rho))
        assert pr.MaterialParams(rho_s=586.0).perm_z == 10.0 ** oracle(586.0)


def test_building_a_board_reads_no_file(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(np, "loadtxt", refuse)
    board = pr.MaterialParams(rho_s=600.0)
    assert board.isotherm is pr.CALIBRATED_ISOTHERM
    assert board.perm_z == pr.vertical_permeability(600.0)
    sc = humphrey_preset()
    assert load_scenario(save_scenario(sc)) == sc


def fresh_python(code):
    """The stdout of ``code`` run by a new interpreter that imports this
    source tree."""
    env = dict(os.environ)
    src = str(Path(hotpress.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    return done.stdout


def test_import_loads_no_interpolation_scipy():
    # scipy serves only the sparse matrices and SuperLU; scipy.interpolate
    # alone would pull in some 200 more modules at every start-up
    out = fresh_python(
        "import hotpress.cli, sys; print(' '.join(m for m in "
        "('scipy.interpolate', 'scipy.optimize', 'scipy.special') "
        "if m in sys.modules))")
    assert out.split() == []


def test_import_opens_no_package_data():
    # the fitted numbers and the permeability table are code: importing
    # opens no file of the package but its modules
    out = fresh_python(
        "import os, sys\n"
        "opened = []\n"
        "sys.addaudithook(lambda event, args: opened.append(args[0]) if "
        "event == 'open' and isinstance(args[0], (str, os.PathLike)) "
        "else None)\n"
        "import hotpress.cli\n"
        "pkg = os.path.dirname(os.path.realpath(hotpress.__file__))\n"
        "for path in map(os.path.realpath, opened):\n"
        "    if path.startswith(pkg + os.sep) and "
        "not path.endswith(('.py', '.pyc')):\n"
        "        print(path)\n")
    assert out.split() == []


class TestDiffusivity:
    def test_reference_state(self):
        assert pr.steam_air_diffusivity(101325.0, 273.15) == pytest.approx(2.20e-5)

    def test_pressure_inverse(self):
        assert pr.steam_air_diffusivity(2 * 101325.0, 273.15) == pytest.approx(1.10e-5)

    def test_temperature_linear(self):
        assert pr.steam_air_diffusivity(101325.0, 2 * 273.15) == pytest.approx(4.40e-5)


class TestGasConstants:
    def test_dry_air_density_at_standard_conditions(self):
        # the ideal-gas law with R_GAS and MM_AIR: 1.2921 kg/m3 at 0 degC
        # and one atmosphere
        rho = 101325.0 * pr.MM_AIR / (pr.R_GAS * pr.KELVIN)
        assert rho == pytest.approx(1.2921, abs=1e-4)
        assert pr.CP_VAPOR == 1880.0

    def test_not_board_fields(self):
        for name in ("r_gas", "mm_air", "cp_vapor"):
            with pytest.raises(TypeError, match=name):
                pr.MaterialParams(rho_s=586.0, **{name: 1.0})


class TestVaporPressureAndDensity:
    @pytest.mark.parametrize(
        "t_c, expect, rel",
        [(100.0, 1.017e5, 0.02), (30.0, 4.82e3, 0.01), (160.0, 6.34e5, 0.01)],
    )
    def test_saturation_pressure(self, t_c, expect, rel):
        assert pr.saturated_vapor_pressure(t_c) == pytest.approx(expect, rel=rel)

    def test_saturation_pressure_monotone(self):
        t = np.linspace(0.0, 200.0, 400)
        p = pr.saturated_vapor_pressure(t)
        assert np.all(np.diff(p) > 0)

    def test_vapor_density_at_boiling_saturation(self):
        rv = pr.vapor_density(pr.saturated_vapor_pressure(100.0), 100.0)
        assert rv == pytest.approx(0.61, rel=0.05)

    def test_vapor_density_zero_humidity(self):
        assert pr.vapor_density(1e5, 0.0) == 0.0

    def test_vapor_density_ambient(self):
        rv = pr.vapor_density(4.82e3, 65.0)
        assert rv == pytest.approx(1.88e-2, rel=1e-3)


class TestHeats:
    def test_latent_heat_values(self):
        assert pr.latent_heat(0.0) == pytest.approx(2.511e6)
        assert pr.latent_heat(100.0) == pytest.approx(2.263e6)
        assert pr.latent_heat(160.0) == pytest.approx(2.1142e6)

    def test_sorption_heat_values(self):
        assert pr.sorption_heat(0.0) == pytest.approx(1.176e6)
        assert pr.sorption_heat(11.0) == pytest.approx(2.259e5, rel=1e-3)
        assert pr.sorption_heat(30.0) == pytest.approx(1.307e4, rel=1e-3)

    def test_sorption_heat_decreasing(self):
        h = np.linspace(0.0, 30.0, 200)
        q = pr.sorption_heat(h)
        assert np.all(np.diff(q) < 0)

    def test_specific_heat_dry_cold(self):
        assert pr.specific_heat(273.15, 0.0) == pytest.approx(1120.2, abs=0.1)

    def test_specific_heat_moist(self):
        assert pr.specific_heat(273.15, 0.11) == pytest.approx(1423.0, abs=1.0)

    def test_specific_heat_waterlike_limit(self):
        # the mixture rule must approach liquid water for very wet material
        assert pr.specific_heat(273.15, 1e6) == pytest.approx(4180.0, abs=1.0)


class TestPorosity:
    def test_suzuki_reference(self):
        p = pr.MaterialParams(rho_s=600.0)
        assert p.porosity == pytest.approx(0.3428, abs=2e-4)

    @pytest.mark.parametrize("kwargs", [
        {"rho_s": 1200.0},                  # denser than fiber and resin
        {"rho_s": 586.0, "rho_f": 500.0},   # fiber lighter than the board
    ])
    def test_no_pore_space_refused_as_rho_s(self, kwargs):
        with pytest.raises(DomainError, match="^rho_s .*no pore space"):
            pr.MaterialParams(**kwargs)


class TestSorptionIsotherm:
    def test_calibration_anchor(self, params):
        assert params.isotherm.emc(30.0, 65.0) == pytest.approx(11.0, abs=1e-9)

    def test_dry_limit(self, params):
        assert params.isotherm.hr_from_emc(30.0, 0.0)[0] == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self, params):
        iso = params.isotherm
        # 130 and 160 degC lie above the temperature clamp
        for t_c in (5.0, 30.0, 70.0, 110.0, 130.0, 160.0):
            near_sat = iso.emc(t_c, 100.0) * (1.0 - 1e-9)
            for h in (2.0, 6.0, 11.0, 15.0, near_sat):
                hr = iso.hr_from_emc(t_c, h)[0]
                assert hr < 100.0
                assert iso.emc(t_c, hr) == pytest.approx(h, abs=1e-10), (
                    f"round trip failed at T={t_c}, H={h}"
                )

    @settings(deadline=None)
    @given(t_c=st.floats(0.0, 200.0), h1=st.floats(0.0, 30.0),
           h2=st.floats(0.0, 30.0))
    def test_inverse_property(self, params, t_c, h1, h2):
        iso = params.isotherm
        lo, hi = sorted((h1, h2))
        hr_lo, hr_hi = iso.hr_from_emc(t_c, lo)[0], iso.hr_from_emc(t_c, hi)[0]
        saturated = iso.emc(t_c, 100.0)
        for h, hr in ((lo, hr_lo), (hi, hr_hi)):
            assert 0.0 <= hr <= 100.0
            assert iso.emc(t_c, hr) == pytest.approx(min(h, saturated), abs=1e-10)
        assert hr_lo <= hr_hi

    def test_inverse_monotone_in_moisture(self, params):
        iso = params.isotherm
        for t_c in (10.0, 40.0, 90.0):
            h = np.linspace(0.5, 18.0, 60)
            hr = iso.hr_from_emc(np.full_like(h, t_c), h)[0]
            assert np.all(np.diff(hr) > 0), f"HR(H) not increasing at T={t_c}"

    def test_surface_monotone_in_humidity(self, params):
        iso = params.isotherm
        hr = np.linspace(0.0, 99.5, 200)
        for t_c in (0.0, 30.0, 70.0, 115.0):
            emc = iso.emc(np.full_like(hr, t_c), hr)
            assert np.all(np.diff(emc) > 0), f"EMC(RH) not increasing at T={t_c}"
            assert np.all(emc >= 0.0)

    def test_hot_clamp_keeps_surface_sane(self, params):
        # above the clamp the surface freezes rather than going negative
        iso = params.isotherm
        assert iso.emc(160.0, 50.0) == pytest.approx(iso.emc(115.0, 50.0))
        assert iso.emc(160.0, 50.0) > 0.0

    def test_saturated_input_returns_full_humidity(self, params):
        assert params.isotherm.hr_from_emc(30.0, 40.0)[0] == 100.0

    def test_vectorized_matches_scalar(self, params):
        iso = params.isotherm
        t = np.array([20.0, 50.0, 80.0])
        h = np.array([4.0, 9.0, 13.0])
        vec = iso.hr_from_emc(t, h)
        for i in range(3):
            assert [v[i] for v in vec] == pytest.approx(
                iso.hr_from_emc(t[i], h[i]), abs=1e-12)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            pr.MaterialParams(rho_s=-1.0)
        with pytest.raises(DomainError):
            pr.MaterialParams(rho_s=600.0, y_r=1.5)

    @pytest.mark.parametrize("name", ["rho_s",
                                      "kappa_anisotropy", "perm_anisotropy",
                                      "rho_f", "rho_r", "y_r"])
    @pytest.mark.parametrize("value", [-1.0, np.nan, np.inf])
    def test_bad_numeric_field_named(self, name, value):
        kwargs = {"rho_s": 586.0, name: value}
        with pytest.raises(DomainError, match=f"^{name} "):
            pr.MaterialParams(**kwargs)

    def test_equality_roundtrip(self):
        a = pr.MaterialParams(rho_s=586.0)
        b = pr.MaterialParams(rho_s=586.0)
        assert a == b
        assert a != pr.MaterialParams(rho_s=600.0)

    def test_determinism(self, params):
        t = np.linspace(10.0, 110.0, 7)
        h = np.linspace(1.0, 15.0, 7)
        a = params.isotherm.hr_from_emc(t, h)
        b = params.isotherm.hr_from_emc(t, h)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


# documented input ranges of the correlations
TEMPERATURE = st.floats(0.0, 200.0)      # degC
MOISTURE = st.floats(0.0, 30.0)          # %
DENSITY = st.floats(300.0, 1000.0)       # kg/m3
PRESSURE = st.floats(1e2, 1e7)           # N/m2


def _ordered(pair, gap):
    """The pair sorted, rejected unless its values differ by ``gap``."""
    lo, hi = sorted(pair)
    assume(hi - lo > gap)
    return lo, hi


class TestMonotoneCorrelations:
    """Positivity and the sign of each slope over the documented ranges."""

    @given(st.tuples(TEMPERATURE, TEMPERATURE),
           st.tuples(MOISTURE, MOISTURE), DENSITY)
    def test_conductivities_rise_with_t_and_h(self, t_pair, h_pair, rho_s):
        (t1, t2), (h1, h2) = _ordered(t_pair, 1e-3), _ordered(h_pair, 1e-3)
        for kappa in (lambda t, h: pr.thermal_conductivity_z(t, h, rho_s),
                      lambda t, h: 1.5 * pr.thermal_conductivity_z(t, h, rho_s)):
            assert 0.0 < kappa(t1, h1) < kappa(t2, h1)
            assert kappa(t1, h1) < kappa(t1, h2)

    @given(st.tuples(TEMPERATURE, TEMPERATURE))
    def test_latent_heat_falls_and_viscosity_positive(self, t_pair):
        t1, t2 = _ordered(t_pair, 1e-3)
        assert pr.latent_heat(t1) > pr.latent_heat(t2) > 0.0
        assert pr.gas_viscosity(t1) > 0.0

    @given(st.tuples(PRESSURE, PRESSURE), st.tuples(TEMPERATURE, TEMPERATURE))
    def test_diffusivity_falls_with_p_rises_with_t(self, p_pair, t_pair):
        (p1, p2), (t1, t2) = _ordered(p_pair, 1e-3), _ordered(t_pair, 1e-3)
        d = pr.steam_air_diffusivity
        assert d(p1, t1 + pr.KELVIN) > d(p2, t1 + pr.KELVIN) > 0.0
        assert d(p1, t2 + pr.KELVIN) > d(p1, t1 + pr.KELVIN)

    @given(st.tuples(TEMPERATURE, TEMPERATURE), st.tuples(MOISTURE, MOISTURE))
    def test_specific_heat_rises_with_t_and_h(self, t_pair, h_pair):
        (t1, t2), (h1, h2) = _ordered(t_pair, 1e-3), _ordered(h_pair, 1e-3)
        cp = pr.specific_heat
        assert 0.0 < cp(t1 + pr.KELVIN, h1 / 100.0) < cp(t2 + pr.KELVIN, h1 / 100.0)
        assert cp(t1 + pr.KELVIN, h1 / 100.0) < cp(t1 + pr.KELVIN, h2 / 100.0)

    @given(TEMPERATURE)
    def test_saturation_slope_matches_centered_difference(self, t_c):
        step = 1e-3
        fd = (pr.saturated_vapor_pressure(t_c + step)
              - pr.saturated_vapor_pressure(t_c - step)) / (2.0 * step)
        slope = pr.saturated_vapor_pressure_slope(
            t_c, pr.saturated_vapor_pressure(t_c))
        assert slope == pytest.approx(fd, rel=1e-6)
