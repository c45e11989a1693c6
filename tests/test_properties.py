"""Tests for the constitutive correlations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hotpress import properties as pr
from hotpress.errors import ConvergenceError, DomainError


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

    def test_in_plane_ratio(self):
        assert pr.thermal_conductivity_xy(0.1) == pytest.approx(0.15)
        assert pr.thermal_conductivity_xy(0.0) == 0.0


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
    def test_table_points_reproduced(self, params):
        fit = pr.vertical_permeability(params.perm_density, params)
        rel = np.abs(fit / params.perm_values - 1.0)
        assert np.max(rel) < 0.15, f"worst table mismatch {np.max(rel):.1%}"

    def test_clamped_outside_range(self, params):
        low = pr.vertical_permeability(300.0, params)
        high = pr.vertical_permeability(1000.0, params)
        assert low == pytest.approx(64e-15, rel=1e-9)
        assert high == pytest.approx(2e-15, rel=1e-9)

    def test_monotone_non_increasing(self, params):
        rho = np.linspace(400.0, 900.0, 501)
        k = pr.vertical_permeability(rho, params)
        assert np.all(np.diff(k) <= 1e-25)

    def test_horizontal_ratio(self):
        assert pr.horizontal_permeability(1e-15) == pytest.approx(5.9e-14)

    def test_table_validation_rejects_rising_permeability(self, tmp_path):
        bad = tmp_path / "perm.txt"
        bad.write_text("425 64\n475 70\n")
        with pytest.raises(DomainError):
            pr.load_permeability_table(bad)

    def test_table_validation_rejects_unsorted_density(self, tmp_path):
        bad = tmp_path / "perm.txt"
        bad.write_text("475 40\n425 64\n")
        with pytest.raises(DomainError):
            pr.load_permeability_table(bad)


class TestDiffusivity:
    def test_reference_state(self):
        assert pr.steam_air_diffusivity(101325.0, 273.15) == pytest.approx(2.20e-5)

    def test_pressure_inverse(self):
        assert pr.steam_air_diffusivity(2 * 101325.0, 273.15) == pytest.approx(1.10e-5)

    def test_temperature_linear(self):
        assert pr.steam_air_diffusivity(101325.0, 2 * 273.15) == pytest.approx(4.40e-5)


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
    def test_simple_half_dense(self):
        p = pr.MaterialParams(rho_s=600.0, porosity_model="simple", bulk_density=300.0)
        assert pr.porosity(300.0, p) == pytest.approx(0.5)

    def test_simple_fully_dense_is_zero(self):
        p = pr.MaterialParams(rho_s=600.0, porosity_model="simple")
        assert pr.porosity(600.0, p) == 0.0

    def test_simple_overdense_rejected(self):
        p = pr.MaterialParams(rho_s=600.0, porosity_model="simple")
        with pytest.raises(DomainError):
            pr.porosity(700.0, p)

    def test_suzuki_reference(self):
        p = pr.MaterialParams(rho_s=600.0)
        assert pr.porosity(600.0, p) == pytest.approx(0.3428, abs=2e-4)


class TestSorptionIsotherm:
    def test_calibration_anchor(self, params):
        assert params.isotherm.emc(30.0, 65.0) == pytest.approx(11.0, abs=1e-9)

    def test_dry_limit(self, params):
        assert params.isotherm.hr_from_emc(30.0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_round_trip(self, params):
        iso = params.isotherm
        # 130 and 160 degC lie above the temperature clamp
        for t_c in (5.0, 30.0, 70.0, 110.0, 130.0, 160.0):
            near_sat = iso.emc(t_c, 100.0) * (1.0 - 1e-9)
            for h in (2.0, 6.0, 11.0, 15.0, near_sat):
                hr = iso.hr_from_emc(t_c, h)
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
        hr_lo, hr_hi = iso.hr_from_emc(t_c, lo), iso.hr_from_emc(t_c, hi)
        saturated = iso.emc(t_c, 100.0)
        for h, hr in ((lo, hr_lo), (hi, hr_hi)):
            assert 0.0 <= hr <= 100.0
            assert iso.emc(t_c, hr) == pytest.approx(min(h, saturated), abs=1e-10)
        assert hr_lo <= hr_hi

    def test_inverse_monotone_in_moisture(self, params):
        iso = params.isotherm
        for t_c in (10.0, 40.0, 90.0):
            h = np.linspace(0.5, 18.0, 60)
            hr = iso.hr_from_emc(np.full_like(h, t_c), h)
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
        assert params.isotherm.hr_from_emc(30.0, 40.0) == 100.0

    def test_vectorized_matches_scalar(self, params):
        iso = params.isotherm
        t = np.array([20.0, 50.0, 80.0])
        h = np.array([4.0, 9.0, 13.0])
        vec = iso.hr_from_emc(t, h)
        for i in range(3):
            assert vec[i] == pytest.approx(iso.hr_from_emc(t[i], h[i]), abs=1e-12)


class TestMaterialParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            pr.MaterialParams(rho_s=-1.0)
        with pytest.raises(DomainError):
            pr.MaterialParams(rho_s=600.0, y_r=1.5)
        with pytest.raises(DomainError):
            pr.MaterialParams(rho_s=600.0, porosity_model="nope")

    @pytest.mark.parametrize("name", ["rho_s", "bulk_density",
                                      "kappa_anisotropy", "perm_anisotropy",
                                      "cp_vapor", "mm_air", "r_gas", "rho_f",
                                      "rho_r", "y_r"])
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
        assert np.array_equal(a, b)


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
                      lambda t, h: pr.thermal_conductivity_xy(
                          pr.thermal_conductivity_z(t, h, rho_s))):
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
        assert pr.saturated_vapor_pressure_slope(t_c) == pytest.approx(fd, rel=1e-6)
