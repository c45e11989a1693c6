"""Tests for the derived thermodynamic state and the assembled residual."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from hotpress import assembly as asm
from hotpress import mesh as hm
from hotpress import properties as props
from hotpress import solver as slv
from hotpress import verification as vf
from hotpress.errors import StepError
from hotpress.properties import MaterialParams
from hotpress.scenario import build_system, humphrey_preset, initial_state

AMBIENT = (30.0, 65.0, 101325.0)


@pytest.fixture(scope="module")
def params():
    return MaterialParams(rho_s=586.0)


@pytest.fixture(scope="module")
def small_mesh():
    return hm.build_graded_mesh(0.2828, 0.0075, 6, 8, 4.0)


@pytest.fixture()
def open_system(small_mesh, params):
    return asm.PressSystem(small_mesh, params, lambda t: 30.0, AMBIENT)


class TestStateVector:
    def test_pack_unpack_roundtrip(self):
        t = np.array([30.0, 40.0])
        h = np.array([11.0, 9.0])
        a = np.array([1.0, 0.5])
        u = asm.pack_state(t, h, a)
        assert u.shape == (6,)
        tt, hh, aa = asm.state_fields(u)
        assert np.array_equal(tt, t) and np.array_equal(hh, h) and np.array_equal(aa, a)

    def test_interleaving_order(self):
        u = asm.pack_state([1.0, 4.0], [2.0, 5.0], [3.0, 6.0])
        assert u.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]

    def test_validate_rejects_negative_moisture(self):
        u = asm.pack_state([30.0], [-0.5], [1.0])
        with pytest.raises(StepError):
            asm.validate_state(u)

    def test_validate_rejects_nan(self):
        u = asm.pack_state([30.0], [np.nan], [1.0])
        with pytest.raises(StepError):
            asm.validate_state(u)

    def test_validate_accepts_tiny_undershoot(self):
        u = asm.pack_state([30.0], [-1e-12], [1.0])
        asm.validate_state(u)  # within tolerance

    def test_validate_moisture_allowance_is_the_roundoff_constant(self):
        tol = asm.H_UNDERSHOOT_TOL
        asm.validate_state(asm.pack_state([30.0], [-0.5 * tol], [-0.5 * tol]))
        for h, a in ((-2.0 * tol, 1.0), (11.0, -2.0 * tol)):
            with pytest.raises(StepError):
                asm.validate_state(asm.pack_state([30.0], [h], [a]))

    def test_validate_air_tolerance_is_strict_by_default(self):
        u = asm.pack_state([30.0], [11.0], [-0.03])
        with pytest.raises(StepError):
            asm.validate_state(u)

    def test_validate_air_tolerance_bounds_the_rim_dip(self):
        dip = asm.pack_state([30.0], [11.0], [-0.03])
        asm.validate_state(dip, a_tol=0.05)  # bounded layer undershoot
        runaway = asm.pack_state([30.0], [11.0], [-0.3])
        with pytest.raises(StepError):
            asm.validate_state(runaway, a_tol=0.05)


def graded_connectivity():
    m = hm.build_graded_mesh(0.2828, 0.0075, 7, 4, 4.0)
    return m.elements, m.n_nodes


def triangle_connectivity():
    """Four triangles over six nodes, numbered out of order."""
    return np.array([[4, 0, 2], [2, 5, 4], [3, 1, 5], [5, 2, 3]]), 6


@pytest.mark.parametrize("connectivity",
                         [graded_connectivity, triangle_connectivity])
class TestNodalOrder:
    """The pattern and element slots against the CSR pattern of a matrix
    of ones over every pair of nodes that share an element."""

    @staticmethod
    def oracle(elements, n_nodes):
        """(indptr, indices, pairs) of that CSR pattern."""
        k = elements.shape[1]
        ones = sparse.csr_matrix((np.ones(elements.size * k), (
            np.repeat(elements, k, axis=1).ravel(), np.tile(elements, k).ravel()
        )), shape=(n_nodes, n_nodes))
        rows = np.repeat(np.arange(n_nodes), np.diff(ones.indptr))
        return ones.indptr, ones.indices, rows * n_nodes + ones.indices

    def test_pattern_is_the_canonical_csr_pattern(self, connectivity):
        elements, n_nodes = connectivity()
        order = asm.NodalOrder(elements, n_nodes, np.arange(n_nodes))
        indptr, indices, _ = self.oracle(elements, n_nodes)
        assert np.array_equal(order.indptr, indptr)
        assert np.array_equal(order.indices, indices)
        assert np.array_equal(order.block_row,
                              np.repeat(np.arange(n_nodes), np.diff(indptr)))

    def test_diag_indexes_each_nodes_diagonal_block(self, connectivity):
        elements, n_nodes = connectivity()
        order = asm.NodalOrder(elements, n_nodes, np.arange(n_nodes))
        assert np.array_equal(order.indices[order.diag], np.arange(n_nodes))
        assert np.array_equal(order.block_row[order.diag], np.arange(n_nodes))

    def test_element_slots_address_the_nodal_blocks(self, connectivity):
        elements, n_nodes = connectivity()
        order = asm.NodalOrder(elements, n_nodes, np.arange(n_nodes))
        _, _, pairs = self.oracle(elements, n_nodes)
        k = elements.shape[1]
        assert order.element_slots.shape == (len(elements), 3 * k, 3 * k)
        i, j = np.indices((3, 3))
        for e, el in enumerate(elements):
            for a in range(k):
                for b in range(k):
                    block = np.searchsorted(pairs, el[a] * n_nodes + el[b])
                    assert np.array_equal(
                        order.element_slots[e, 3 * a:3 * a + 3, 3 * b:3 * b + 3],
                        9 * block + 3 * i + j)


class TestDerivedState:
    def test_chained_reference_state(self, params):
        """T=30, H=11 (the calibration anchor), near-vacuum air."""
        th = asm.derive_thermo(30.0, 11.0, 1e-6, params)
        psat = props.saturated_vapor_pressure(30.0)
        assert th[asm.P_VAPOR] == pytest.approx(0.65 * psat, rel=1e-12)
        assert th[asm.RHO_V] == pytest.approx(6.0e-8 * psat * 65.0, rel=1e-12)
        p_air = 1e-6 * 8314.0 * 303.15 / 28.96
        assert th[asm.P_TOTAL] == pytest.approx(p_air + th[asm.P_VAPOR],
                                                rel=1e-12)
        assert th[asm.TEMP] == 30.0 and th[asm.RHO_A] == 1e-6
        # ideal gas: P_a = rho_a R T / mm, alone in dry air
        dry = asm.derive_thermo(30.0, 0.0, 1e-6, params)
        assert dry[asm.P_TOTAL] == pytest.approx(p_air, rel=1e-12)

    def test_dry_vacuum_state_evaluable(self, params):
        th = asm.derive_thermo(25.0, 0.0, 0.0, params)
        assert th[asm.P_VAPOR] == 0.0
        assert th[asm.RHO_V] == 0.0
        assert th[asm.P_TOTAL] == 0.0
        assert np.isfinite(th[asm.DIFFUSIVITY]) and th[asm.DIFFUSIVITY] > 0.0

    def test_moisture_clamped_for_constitutive_laws(self, params):
        th_neg = asm.derive_thermo(50.0, -1e-8, 0.5, params)
        th_zero = asm.derive_thermo(50.0, 0.0, 0.5, params)
        assert th_neg[asm.RHO_V] == th_zero[asm.RHO_V]
        assert th_neg[asm.HEAT] == th_zero[asm.HEAT]
        # below zero moisture the vapor density no longer follows H
        assert th_neg[asm.RV_H] == 0.0 < th_zero[asm.RV_H]

    def test_porosity_comes_from_params(self, open_system, params):
        assert open_system.epsilon == params.porosity
        assert open_system.row_scale[asm.IDX_A] == 1.0 / open_system.epsilon

    def test_vectorized_matches_scalar(self, params):
        t = np.array([30.0, 80.0, 140.0])
        h = np.array([11.0, 6.0, 2.0])
        a = np.array([1e-6, 0.4, 1.1])
        th = asm.derive_thermo(t, h, a, params)
        assert th.shape == (3, asm.N_NODAL)
        for i in range(3):
            ths = asm.derive_thermo(t[i], h[i], a[i], params)
            assert th[i] == pytest.approx(ths, rel=1e-13)

    def test_columns_match_the_correlations(self, params):
        """Every column of the nodal state is the value composed from the
        public correlations, over moisture below zero and at or above
        saturation, temperatures at the ends of and beyond the isotherm's
        clamp, and near-vacuum to atmospheric air."""
        iso = params.isotherm
        t = np.array([0.2, 1.0, 30.0, 60.0, 100.0, 114.0, 116.0, 150.0, 190.0])
        h = np.array([-0.3, 0.0, 40.0, 9.0, 3.0, 10.0, 10.0, 2.0, 0.5])
        a = np.array([1e-6, 1.2, 0.6, 1.19, 0.0, 0.3, 0.3, 1e-4, 0.9])
        h = np.append(h, iso.emc(t, 100.0))         # exactly saturated
        t, a = np.tile(t, 2), np.tile(a, 2)
        assert (h < 0.0).any() and (t < 1.0).any() and (t > 115.0).any()

        system = asm.PressSystem(hm.build_graded_mesh(1.0, 1.0, len(t) - 1, 1,
                                                      1.0),
                                 params, lambda s: 30.0, AMBIENT)
        u = np.zeros(system.n_dofs)
        u[:3 * len(t)] = asm.pack_state(t, h, a)
        s = system.nodal_state(u)[:len(t)]

        h0 = np.maximum(h, 0.0)
        hr, hr_t, hr_h = iso.hr_from_emc(t, h0)
        assert (hr == 100.0).any() and (hr < 100.0).any()
        p_sat = props.saturated_vapor_pressure(t)
        p_v = hr / 100.0 * p_sat
        p_tot = a * props.R_GAS * (t + props.KELVIN) / props.MM_AIR + p_v
        kappa_z = props.thermal_conductivity_z(t, h0, params.rho_s)
        k_z = props.vertical_permeability(params.rho_s)
        mu = props.gas_viscosity(t)
        expect = {
            asm.P_TOTAL: p_tot, asm.TEMP: t, asm.RHO_A: a,
            asm.RHO_V: props.vapor_density(p_sat, hr),
            asm.P_VAPOR: p_v,
            asm.RV_T: props.vapor_density(
                props.saturated_vapor_pressure_slope(t, p_sat), hr)
            + props.vapor_density(p_sat, hr_t),
            asm.RV_H: props.vapor_density(p_sat, np.where(h < 0.0, 0.0, hr_h)),
            asm.KAPPA_Z: kappa_z,
            asm.KAPPA_XY: params.kappa_anisotropy * kappa_z,
            asm.MOB_Z: k_z / mu,
            asm.MOB_XY: params.perm_anisotropy * k_z / mu,
            asm.DIFFUSIVITY: props.steam_air_diffusivity(
                np.maximum(p_tot, asm.PRESSURE_FLOOR), t + props.KELVIN),
            asm.CP: props.specific_heat(t + props.KELVIN, h0 / 100.0),
            asm.HEAT: props.latent_heat(t) + props.sorption_heat(h0),
        }
        assert sorted(expect) == list(range(asm.N_NODAL))
        for col, value in expect.items():
            np.testing.assert_allclose(s[:, col], value, rtol=1e-13, atol=0.0,
                                       err_msg=f"column {col}")


class TestVaporDensityPartials:
    def test_signs(self, params):
        th = asm.derive_thermo(80.0, 8.0, 0.5, params)
        assert th[asm.RV_T] > 0.0, "vapor density must rise with temperature"
        assert th[asm.RV_H] > 0.0, \
            "vapor density must rise with moisture below saturation"

    def test_matches_coarse_difference(self, params):
        def rho_v(t, h):
            return asm.derive_thermo(t, h, 0.5, params)[asm.RHO_V]

        step = 1e-4
        # below the isotherm's temperature clamp, above it, saturated, and
        # near both ends of the clamp range
        for t0, h0 in ((70.0, 9.0), (130.0, 10.0), (30.0, 40.0), (0.5, 8.0),
                       (114.0, 10.0), (60.0, 0.01)):
            th = asm.derive_thermo(t0, h0, 0.5, params)
            dt_exact, dh_exact = th[asm.RV_T], th[asm.RV_H]
            dt_coarse = (rho_v(t0 + step, h0) - rho_v(t0 - step, h0)) / (2 * step)
            dh_coarse = (rho_v(t0, h0 + step) - rho_v(t0, h0 - step)) / (2 * step)
            assert dt_exact == pytest.approx(dt_coarse, rel=1e-6), (t0, h0)
            if th[asm.P_VAPOR] < props.saturated_vapor_pressure(t0):
                assert dh_exact == pytest.approx(dh_coarse, rel=1e-6), (t0, h0)
                continue
            # saturated: both slopes of the humidity vanish, so rho_v follows
            # P_sat(T) alone and does not depend on H
            assert params.isotherm.hr_from_emc(t0, h0)[1:] \
                == (0.0, 0.0)
            assert dh_exact == 0.0 and dh_coarse == 0.0
            assert dt_exact == pytest.approx(props.vapor_density(
                props.saturated_vapor_pressure_slope(
                    t0, props.saturated_vapor_pressure(t0)), 100.0), rel=1e-14)

    def test_kink_at_the_isotherm_clamp(self, params):
        """d(rho_v)/dT falls by 12 % across the 115 degC clamp at H = 10 %,
        as the isotherm's docstring states."""
        below, above = (asm.derive_thermo(t, 10.0, 0.5, params)[asm.RV_T]
                        for t in (114.999, 115.001))
        assert below == pytest.approx(0.032584, rel=1e-5)
        assert above == pytest.approx(0.028606, rel=1e-5)


class TestDarcyVelocity:
    """``darcy_velocity`` takes the mobilities K/mu."""

    def test_antiparallel_to_gradient(self):
        v = asm.darcy_velocity(np.array([1.0e5, -2.0e5]),
                               5.9e-13 / 2.0e-5, 1.0e-14 / 2.0e-5)
        assert v[0] < 0.0 and v[1] > 0.0

    def test_anisotropy_ratio(self):
        grad = np.array([1.0e4, 1.0e4])
        v = asm.darcy_velocity(grad, 59.0e-14 / 1.8e-5, 1.0e-14 / 1.8e-5)
        assert v[0] / v[1] == pytest.approx(59.0, rel=1e-12)

    def test_magnitude(self):
        # V = K/mu * |grad P|
        v = asm.darcy_velocity(np.array([0.0, 1.0e5]),
                               5.9e-13 / 2.0e-5, 1.0e-14 / 2.0e-5)
        assert v[1] == pytest.approx(-1.0e-14 / 2.0e-5 * 1.0e5, rel=1e-12)


class TestTauSupg:
    def test_diffusive_limit(self):
        h, kappa = 0.01, 1.0
        tau = asm.tau_supg(1e-9, h, kappa)
        assert tau == pytest.approx(h**2 / (12.0 * kappa), rel=1e-6)

    def test_advective_limit(self):
        a, h = 10.0, 0.01
        tau = asm.tau_supg(a, h, 1e-9)
        assert tau == pytest.approx(h / (2.0 * a), rel=1e-6)

    def test_continuous_across_series_switch(self):
        # Peclet just below / above the series cutover at matched h, kappa
        below = asm.tau_supg(2.0 * 0.99e-4, 1.0, 1.0)
        above = asm.tau_supg(2.0 * 1.01e-4, 1.0, 1.0)
        assert below == pytest.approx(above, rel=1e-6)


class TestBoundaryTargets:
    def test_rim_moisture_matches_calibration(self, open_system):
        # ambient 30 degC / 65 % and rim at 30 degC -> EMC anchor
        assert open_system.rim_moisture_bc(30.0) == pytest.approx(11.0, abs=1e-9)

    def test_rim_moisture_drops_when_hot(self, open_system):
        assert open_system.rim_moisture_bc(160.0) < 1.0

    def test_rim_air_ideal_gas(self, open_system):
        p_a = 101325.0 - 0.65 * props.saturated_vapor_pressure(30.0)
        expect = p_a * 28.96 / (8314.0 * 303.15)
        assert open_system.rim_air_bc(30.0) == pytest.approx(expect, rel=1e-12)

    def test_constrained_sets(self, small_mesh, params):
        sys_open = asm.PressSystem(small_mesh, params, lambda t: 30.0, AMBIENT)
        sys_sealed = asm.PressSystem(
            small_mesh, params, lambda t: 30.0, AMBIENT, sealed_radius=True
        )
        n_platen = len(small_mesh.node_tags[hm.PLATEN])
        n_rim = len(small_mesh.node_tags[hm.EXTERNAL])
        assert len(sys_open.constrained_dofs) == n_platen + 2 * n_rim
        assert len(sys_sealed.constrained_dofs) == n_platen

    def test_apply_dirichlet_assigns_targets(self, open_system):
        n = open_system.mesh.n_nodes
        u = asm.pack_state(np.full(n, 50.0), np.full(n, 9.0), np.full(n, 0.7))
        open_system.apply_dirichlet(u, 0.0)
        assert np.allclose(u[open_system.platen_tdofs], 30.0)
        t_rim = u[open_system.rim_tdofs]
        assert np.allclose(u[open_system.rim_hdofs],
                           open_system.rim_moisture_bc(t_rim))


class TestResidual:
    def equilibrium_state(self, system):
        n = system.mesh.n_nodes
        return asm.pack_state(
            np.full(n, 30.0), np.full(n, 11.0),
            np.full(n, system.rim_air_bc(30.0)),
        )

    def test_equilibrium_annihilation(self, open_system):
        u = self.equilibrium_state(open_system)
        r = open_system.residual(u, np.zeros_like(u), 0.0)
        assert np.abs(r).max() < 1e-12, (
            f"equilibrium residual {np.abs(r).max():.2e} should vanish"
        )

    def test_equilibrium_rates_vanish(self, open_system):
        u = self.equilibrium_state(open_system)
        rates = open_system.ode_rates(u, 0.0)
        assert np.abs(rates).max() < 1e-9

    def test_constraint_rows_replaced(self, open_system):
        u = self.equilibrium_state(open_system)
        u[open_system.platen_tdofs[0]] = 45.0  # violate the platen value
        r = open_system.residual(u, np.zeros_like(u), 0.0)
        assert r[open_system.platen_tdofs[0]] == pytest.approx(15.0, rel=1e-12)

    def test_mass_term_enters_residual(self, open_system):
        u = self.equilibrium_state(open_system)
        dudt = np.zeros_like(u)
        free_t = 3 * open_system.mesh.grid[2, 2] + asm.IDX_T
        dudt[free_t] = 1.0  # 1 K/s at one interior node
        r = open_system.residual(u, dudt, 0.0)
        assert r[free_t] > 0.0

    def test_elements_conserve_moisture_and_air(self, open_system):
        """Over each element's four corners the moisture and air rows sum
        to zero, since sum_a grad N_a = 0: flux and streamline terms alike
        only move water and air between corners."""
        mesh = open_system.mesh
        r = mesh.nodes[:, 0] / 0.2828
        z = mesh.nodes[:, 1] / 0.0075
        u = asm.pack_state(30.0 + 80.0 * z**2 + 10.0 * r,
                           11.0 - 4.0 * z + 2.0 * r**2,
                           0.2 + 0.9 * r**2 + 0.3 * z)
        open_system.apply_dirichlet(u, 10.0)  # ambient rim, 30 degC platen
        corners = open_system.nodal_state(u)[mesh.elements]
        re = open_system.element_residual(None, 10.0, corners)
        for c in (asm.IDX_H, asm.IDX_A):
            scale = np.abs(re[:, :, c]).max()
            assert scale > 0.0
            worst = np.abs(re[:, :, c].sum(axis=1)).max() / scale
            assert worst <= 1e-13, f"row {c}: element sums {worst:.1e}"

    def test_radial_uniformity_preserved(self, params):
        """Sealed run from an r-uniform state: rates must not depend on r."""
        m = hm.build_graded_mesh(0.2828, 0.0075, 6, 10, 4.0)
        system = asm.PressSystem(m, params, lambda t: 160.0, AMBIENT,
                                 sealed_radius=True)
        z = m.nodes[:, 1]
        u = asm.pack_state(
            30.0 + 100.0 * (z / 0.0075) ** 2,
            11.0 - 3.0 * (z / 0.0075),
            1e-3 * (1.0 + 0.5 * z / 0.0075),
        )
        rates = system.ode_rates(u, 0.0).reshape(m.n_nodes, 3)
        for iz in range(m.n_z + 1):
            line = m.grid[iz]
            for c in range(3):
                vals = rates[line, c]
                ref = max(abs(vals[0]), 1e-30)
                assert np.abs(vals - vals[0]).max() / ref < 1e-10, (
                    f"row iz={iz} component {c} rates vary radially"
                )

    def test_platen_heating_warms_adjacent_nodes(self, small_mesh, params):
        system = asm.PressSystem(small_mesh, params, lambda t: 160.0, AMBIENT)
        n = small_mesh.n_nodes
        u = asm.pack_state(np.full(n, 30.0), np.full(n, 11.0), np.full(n, 1e-6))
        system.apply_dirichlet(u, 0.0)
        rates = system.ode_rates(u, 0.0).reshape(n, 3)
        inner = small_mesh.grid[-2, :-1]
        assert np.all(rates[inner, asm.IDX_T] > 0.0)

    def test_latent_heat_charged_once(self, small_mesh, params):
        """Isothermal gas flow: the energy row holds the latent heat of the
        water that evaporates, once.

        At uniform T and H the only transport is Darcy flow driven by a
        non-uniform air density.  Taking dH/dt from the moisture rows
        makes the bound water supply the vapor outflow; the energy row
        must then equal (lambda + Q) * mdot at every free node, with
        mdot = (eps d(rho_v)/dH - rho_s/100) dH/dt, and nothing more.
        """
        system = asm.PressSystem(small_mesh, params, lambda t: 100.0,
                                 AMBIENT, sealed_radius=True)
        n = small_mesh.n_nodes
        r, z = small_mesh.nodes[:, 0], small_mesh.nodes[:, 1]
        u = asm.pack_state(
            np.full(n, 100.0), np.full(n, 11.0),
            0.3 + 0.5 * (r / 0.2828) ** 2 + 0.2 * (z / 0.0075),
        )
        scale = system.row_scale
        spatial = system.residual(u, None, 0.0, constrained=False)
        omega = np.zeros(n)
        np.add.at(omega, small_mesh.elements, system.omega)
        dh_dt = -spatial[asm.IDX_H::3] / scale[asm.IDX_H] / (
            params.rho_s / 100.0 * omega)
        dudt = np.zeros_like(u)
        dudt[asm.IDX_H::3] = dh_dt

        r_full = system.residual(u, dudt, 0.0, constrained=False)
        assert np.abs(r_full[asm.IDX_H::3]).max() < 1e-12 * np.abs(
            spatial[asm.IDX_H::3]).max(), "moisture rows should vanish"

        th = asm.derive_thermo(100.0, 11.0, 0.5, params)
        expect = th[asm.HEAT] * (
            system.epsilon * th[asm.RV_H] - params.rho_s / 100.0) * dh_dt * omega
        energy = r_full[asm.IDX_T::3] / scale[asm.IDX_T]
        free = np.setdiff1d(np.arange(n), small_mesh.node_tags[hm.PLATEN])
        err = np.abs(energy[free] - expect[free]).max()
        ref = np.abs(expect[free]).max()
        assert ref > 0.0
        assert err <= 1e-10 * ref, (
            f"energy rows carry {np.abs(energy[free]).max() / ref:.3f}x the "
            f"latent heat of the evaporating water (relative error "
            f"{err / ref:.2e})")

    @pytest.mark.parametrize("sealed", [True, False])
    def test_rates_solve_semi_discrete_system(self, small_mesh, params, sealed):
        """M(u) ode_rates(u) + R_spatial(u) = 0 on every free row.

        The open rim's temperature rows are left out: their latent
        coupling follows the slope of the rim moisture constraint, not
        the free moisture row.
        """
        system = asm.PressSystem(small_mesh, params, lambda t: 160.0,
                                 AMBIENT, sealed_radius=sealed)
        r = small_mesh.nodes[:, 0] / 0.2828
        z = small_mesh.nodes[:, 1] / 0.0075
        u = asm.pack_state(40.0 + 60.0 * z**2 + 10.0 * r**2,
                           10.0 - 3.0 * z + r,
                           0.2 + 0.5 * r**2 + 0.2 * z)
        rates = system.ode_rates(u, 0.0)
        spatial = system.residual(u, None, 0.0, constrained=False)
        full = system.residual(u, rates, 0.0, constrained=False)
        left_out = system.constrained_dofs
        if not sealed:
            left_out = np.concatenate([left_out, system.rim_tdofs])
        free = np.setdiff1d(np.arange(system.n_dofs), left_out)
        ratio = np.abs(full[free]).max() / np.abs(spatial[free]).max()
        assert ratio < 1e-12, f"rates leave a relative residual {ratio:.2e}"

    def test_constrained_rates_zero(self, open_system):
        u = self.equilibrium_state(open_system)
        u[asm.IDX_T::3] += np.linspace(0, 5, open_system.mesh.n_nodes)
        rates = open_system.ode_rates(u, 0.0)
        assert np.all(rates[open_system.constrained_dofs] == 0.0)


class TestFrozenLinearity:
    def test_residual_affine_in_state(self, small_mesh, params):
        system = asm.PressSystem(small_mesh, params, lambda t: 160.0, AMBIENT)
        rng = np.random.default_rng(7)
        n = small_mesh.n_nodes
        u0 = asm.pack_state(
            30.0 + 40.0 * rng.random(n),
            5.0 + 6.0 * rng.random(n),
            0.2 + 0.8 * rng.random(n),
        )
        system = vf.FrozenCoefficientSystem(system, u0)
        du = rng.standard_normal(u0.size)
        dudt = 0.1 * rng.standard_normal(u0.size)

        def r_at(s):
            return system.residual(u0 + s * du, dudt, 5.0)

        curvature = r_at(2.0) - 2.0 * r_at(1.0) + r_at(0.0)
        scale = np.abs(r_at(1.0)).max()
        assert np.abs(curvature).max() < 1e-10 * scale, (
            "frozen-coefficient residual must be affine in the state"
        )

    def test_freeze_none_restores_nonlinearity(self, small_mesh, params):
        """Freezing builds a new system; the production one stays nonlinear."""
        system = asm.PressSystem(small_mesh, params, lambda t: 160.0, AMBIENT)
        n = small_mesh.n_nodes
        u0 = asm.pack_state(np.full(n, 60.0), np.full(n, 8.0), np.full(n, 0.5))
        vf.FrozenCoefficientSystem(system, u0)
        du = np.ones(u0.size)
        r0 = system.residual(u0, np.zeros_like(u0), 0.0)
        r1 = system.residual(u0 + du, np.zeros_like(u0), 0.0)
        r2 = system.residual(u0 + 2 * du, np.zeros_like(u0), 0.0)
        assert np.abs(r2 - 2 * r1 + r0).max() > 0.0


class TestWaterBookkeeping:
    def test_lumped_water_uniform_slab(self, small_mesh, params):
        system = asm.PressSystem(small_mesh, params, lambda t: 30.0, AMBIENT)
        n = small_mesh.n_nodes
        u = asm.pack_state(np.full(n, 30.0), np.full(n, 10.0), np.full(n, 1.0))
        # integral of rho_s * (H/100) * r over the section = rho_s*0.1*R^2/2*thk
        expect = 586.0 * 0.1 * 0.2828**2 / 2.0 * 0.0075
        assert system.lumped_water(u) == pytest.approx(expect, rel=1e-12)

    def test_balance_identity_for_no_change(self, open_system):
        n = open_system.mesh.n_nodes
        u = asm.pack_state(np.full(n, 30.0), np.full(n, 11.0),
                           np.full(n, open_system.rim_air_bc(30.0)))
        storage, influx = open_system.water_balance(u, u, 1.0, 1.0)
        assert storage == pytest.approx(0.0, abs=1e-14)
        assert influx == pytest.approx(0.0, abs=1e-14)


class TestStableDtAdvisory:
    def test_positive_and_small(self, open_system):
        n = open_system.mesh.n_nodes
        u = asm.pack_state(np.full(n, 30.0), np.full(n, 11.0), np.full(n, 1e-6))
        dt = open_system.stable_dt_advisory(u)
        assert 0.0 < dt < 1.0

    def test_advised_dt_runs_explicit_press_start(self):
        """The near-vacuum initial pore gas sets the limit: an open 6 x 6
        humphrey board integrates explicitly at the advised dt without
        driving the air density negative."""
        sc = replace(humphrey_preset(), n_r=6, n_z=6)
        system = build_system(sc)
        u0 = initial_state(sc, system.mesh)
        dt = system.stable_dt_advisory(u0)
        res = slv.run_transient(system, u0, slv.SolverConfig(
            t_end=0.05, dt=dt, scheme="explicit"), store_all=True)
        assert not any("advisory" in ln for ln in res.log)
        assert res.times[-1] == pytest.approx(0.05)
        assert min(asm.state_fields(u)[2].min() for u in res.states) >= 0.0
