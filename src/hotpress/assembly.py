"""Weak-form assembly of the coupled heat / moisture / air system.

Unknowns per node: temperature T [degC], moisture content H [% dry mass]
and dry-air density rho_a [kg/m3], interleaved as ``u[3*j + c]``.

The semi-discrete system integrated by the solver is

    M(u) du/dt = -R_spatial(u, t)

where ``M`` is a row-sum lumped mass operator per node (heat capacity,
moisture storage, air storage, plus the latent evaporation coupling of the
energy row to dT/dt and dH/dt through the vapor-density chain rule), and
``R_spatial`` carries the axisymmetric Galerkin flux terms, the sensible
heat advected by the vapor and streamline (SUPG) stabilization of the
convective terms.

The energy row charges the phase-change heat once, through
``(lambda + Q) * mdot`` with the evaporation rate
``mdot = eps d(rho_v)/dt - (rho_s/100) dH/dt``.  The moisture row makes
``-(rho_s/100) dH/dt`` the divergence of the vapor flux, so ``mdot``
already contains the latent heat the gas carries; the gas convects only
its sensible heat, ``rho_v cp_vapor V . grad T``, written in advective
(non-divergence) form.  That form needs no rim boundary term: gas leaves
the open rim at the local temperature and the rim keeps zero conductive
flux.

``PressSystem.residual(u, dudt, t)`` evaluates
``M(u)*dudt + R_spatial(u, t)`` with equation rows scaled to comparable
magnitudes, then replaces constrained rows (platen temperature, rim
equilibrium) by their Dirichlet residuals.  The residual is exactly zero for
a uniform state in equilibrium with all boundary values.

The constitutive state at the element corners is evaluated in one place,
``PressSystem._corner_state``, and the residual and the explicit rates
share its result.  ``derive_thermo`` inverts the sorption isotherm in
closed form once per corner; ``vapor_density_partials`` reuses that
humidity for the closed-form slopes of rho_v.  ``PressSystem`` has no
verification modes: the manufactured-solution and frozen-coefficient
systems are subclasses in ``verification``.

Element integrals are evaluated with 2x2 Gauss quadrature and the
axisymmetric volume weight r; the factor 2*pi is common to every term and
dropped.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import mesh as hmesh
from . import properties as props
from .errors import DomainError, StepError
from .properties import KELVIN

N_VARS = 3
IDX_T, IDX_H, IDX_A = 0, 1, 2

# finite-difference scales per unknown type: relative steps bottom out at
# these magnitudes so derivatives stay resolvable near zero values
STATE_SCALE = np.array([1.0, 1.0, 0.1])  # degC, %, kg/m3

# interdiffusion needs a total pressure; keep the degenerate dry/vacuum
# state evaluable without affecting any scenario-reachable state
PRESSURE_FLOOR = 100.0  # N/m2


# ---------------------------------------------------------------------------
# state vector helpers
# ---------------------------------------------------------------------------

def pack_state(t_c, h_pct, rho_a):
    """Interleave nodal fields into a flat state vector."""
    t_c, h_pct, rho_a = np.broadcast_arrays(t_c, h_pct, rho_a)
    return np.column_stack([t_c, h_pct, rho_a]).ravel().astype(float)


def state_fields(u):
    """Views (T, H, rho_a) of a flat state vector."""
    m = u.reshape(-1, N_VARS)
    return m[:, IDX_T], m[:, IDX_H], m[:, IDX_A]


def validate_state(u, h_tol=1e-9, a_tol=None):
    """Raise StepError when a state violates basic physical bounds.

    Parameters
    ----------
    h_tol : float
        Roundoff allowance below zero for moisture [%].
    a_tol : float, optional
        Allowance below zero for air density [kg/m3]; defaults to
        ``h_tol``.  The time loop passes a larger value: with a
        near-vacuum initial pore gas, the air field forms a steep layer
        against the rim value that a practical mesh cannot resolve, and
        the nodes just inside it undershoot zero by a few percent of the
        layer jump.  That dip is bounded and harmless to the
        thermodynamics, unlike the runaway states this check is for.
    """
    if a_tol is None:
        a_tol = h_tol
    t_c, h_pct, rho_a = state_fields(u)
    bad = []
    if np.any(~np.isfinite(u)):
        bad.append("non-finite entries")
    else:
        if np.any(t_c <= -KELVIN):
            bad.append(f"temperature below absolute zero (min {t_c.min():.3f} degC)")
        if np.any(h_pct < -h_tol):
            bad.append(f"negative moisture (min {h_pct.min():.3e} %)")
        if np.any(rho_a < -a_tol):
            bad.append(f"negative air density (min {rho_a.min():.3e} kg/m3)")
    if bad:
        raise StepError("; ".join(bad))


# ---------------------------------------------------------------------------
# pointwise thermodynamic state
# ---------------------------------------------------------------------------

@dataclass
class ThermoPoint:
    """All derived quantities at one (or an array of) state point(s)."""

    p_air: np.ndarray        # N/m2
    hr: np.ndarray           # %
    p_sat: np.ndarray        # N/m2
    p_vapor: np.ndarray      # N/m2
    rho_v: np.ndarray        # kg/m3
    rho_gas: np.ndarray      # kg/m3
    p_total: np.ndarray      # N/m2
    epsilon: float
    latent: np.ndarray       # J/kg
    sorption: np.ndarray     # J/kg
    kappa_z: np.ndarray      # W/(m K)
    kappa_xy: np.ndarray
    perm_z: float            # m2
    perm_xy: float
    viscosity: np.ndarray    # kg/(m s)
    diffusivity: np.ndarray  # m2/s
    cp: np.ndarray           # J/(kg K)


def derive_thermo(t_c, h_pct, rho_a, params, epsilon=None):
    """Evaluate the full derived state at given (T, H, rho_a).

    Order of evaluation: air partial pressure from the gas law, relative
    humidity from the sorption surface, saturation and vapor pressure,
    vapor density from the vapor-state fit, then every transport
    coefficient.  Moisture is clamped at zero for the constitutive
    evaluations so slightly-undershooting transients stay evaluable.

    Parameters
    ----------
    t_c, h_pct, rho_a : float or ndarray
        State (same shapes).
    params : MaterialParams
    epsilon : float, optional
        Porosity; defaults to the board value from ``params``.

    Returns
    -------
    ThermoPoint
    """
    t_c = np.asarray(t_c, dtype=float)
    h = np.maximum(np.asarray(h_pct, dtype=float), 0.0)
    rho_a = np.asarray(rho_a, dtype=float)
    if epsilon is None:
        epsilon = params.porosity_value()

    t_k = t_c + KELVIN
    if np.any(t_k <= 0.0) or np.any(~np.isfinite(t_k)):
        raise DomainError("temperature at or below absolute zero")
    p_air = rho_a * params.r_gas * t_k / params.mm_air
    hr = params.isotherm.hr_from_emc(t_c, h)
    p_sat = props.saturated_vapor_pressure(t_c)
    p_vapor = (hr / 100.0) * p_sat
    rho_v = props.vapor_density(p_sat, hr)
    p_total = p_air + p_vapor

    kappa_z = props.thermal_conductivity_z(t_c, h, params.rho_s)
    perm_z = props.vertical_permeability(params.rho_s, params)
    return ThermoPoint(
        p_air=p_air,
        hr=hr,
        p_sat=p_sat,
        p_vapor=p_vapor,
        rho_v=rho_v,
        rho_gas=rho_v + rho_a,
        p_total=p_total,
        epsilon=epsilon,
        latent=props.latent_heat(t_c),
        sorption=props.sorption_heat(h),
        kappa_z=kappa_z,
        kappa_xy=props.thermal_conductivity_xy(kappa_z, params.kappa_anisotropy),
        perm_z=perm_z,
        perm_xy=props.horizontal_permeability(perm_z, params.perm_anisotropy),
        viscosity=props.gas_viscosity(t_c),
        diffusivity=props.steam_air_diffusivity(
            np.maximum(p_total, PRESSURE_FLOOR), t_k
        ),
        cp=props.specific_heat(t_k, h / 100.0),
    )


def vapor_density_partials(t_c, h_pct, hr, params):
    """d(rho_v)/dT and d(rho_v)/dH in closed form at the humidity ``hr``
    that ``derive_thermo`` inverted at the same (T, H).

    rho_v is linear in P_sat(T) and in HR(T, H), whose slopes come from the
    isotherm.  They are zero where HR is clamped, at saturation and for
    H < 0; there d(rho_v)/dT is the saturation-pressure term alone.
    """
    hr_t, hr_h = params.isotherm.hr_slopes(t_c, hr)
    p_sat = props.saturated_vapor_pressure(t_c)
    drv_dt = props.vapor_density(props.saturated_vapor_pressure_slope(t_c), hr) \
        + props.vapor_density(p_sat, hr_t)
    drv_dh = props.vapor_density(p_sat, np.where(np.asarray(h_pct) < 0.0, 0.0, hr_h))
    return drv_dt, drv_dh


def darcy_velocity(grad_p, mob_xy, mob_z):
    """Superficial gas velocity V = -(K / mu) grad P.

    Parameters
    ----------
    grad_p : (..., 2) array
        (dP/dr, dP/dz) [N/m3].
    mob_xy, mob_z : float or ndarray
        Mobilities K / mu [m2 / (Pa s)], in-plane and transverse.

    Returns
    -------
    (V_r, V_z) : tuple of arrays
        [m/s], anti-parallel to the pressure gradient.
    """
    return -mob_xy * grad_p[..., 0], -mob_z * grad_p[..., 1]


@dataclass
class CornerState:
    """Constitutive state at the element corners, each field (n_el, 4)."""

    thermo: ThermoPoint
    rv_t: np.ndarray     # d(rho_v)/dT  [kg/(m3 K)]
    rv_h: np.ndarray     # d(rho_v)/dH  [kg/(m3 %)]
    # vapor density the moisture flux transports; ``thermo.rho_v`` except
    # in the frozen-coefficient verification system, which linearizes it
    rho_v: np.ndarray


def tau_supg(a_mag, h, kappa):
    """Streamline stabilization time scale.

    tau = (coth(Pe) - 1/Pe) * h / (2 |a|) with element Peclet
    Pe = |a| h / (2 kappa), evaluated as h^2/(4 kappa) * xi(Pe)/Pe which is
    finite in both the diffusive (-> h^2 / (12 kappa)) and the advective
    (-> h / (2|a|)) limit.
    """
    a_mag = np.asarray(a_mag, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    pe = a_mag * h / (2.0 * kappa)
    small = pe < 1e-4
    pe_safe = np.where(small, 1.0, pe)
    with np.errstate(over="ignore"):
        xi_over_pe = np.where(
            small,
            1.0 / 3.0 - pe**2 / 45.0,
            (1.0 / np.tanh(pe_safe) - 1.0 / pe_safe) / pe_safe,
        )
    return h**2 / (4.0 * kappa) * xi_over_pe


# ---------------------------------------------------------------------------
# assembled system
# ---------------------------------------------------------------------------

class PressSystem:
    """Precomputed discrete operator for one mesh / material / scenario.

    Parameters
    ----------
    mesh : Mesh
    params : MaterialParams
    platen_temperature : callable t -> degC
        Press schedule.
    ambient : (t_atm, hr_atm, p_atm)
        Exterior air state (degC, %, N/m2).
    sealed_radius : bool
        Closed-rim variant: drop the rim moisture and air Dirichlet rows
        (weak zero-flux everywhere), conserving water and air exactly.
    """

    def __init__(self, mesh, params, platen_temperature, ambient,
                 sealed_radius=False):
        self.mesh = mesh
        self.params = params
        self.platen_temperature = platen_temperature
        self.t_atm, self.hr_atm, self.p_atm = ambient
        self.sealed_radius = sealed_radius
        self.epsilon = params.porosity_value()
        self.n_dofs = N_VARS * mesh.n_nodes

        # exterior partial pressures (Dalton)
        self.p_v_atm = (self.hr_atm / 100.0) * props.saturated_vapor_pressure(self.t_atm)
        self.p_a_atm = self.p_atm - self.p_v_atm

        rule = hmesh.QuadratureRule.gauss(2)
        coords = mesh.nodes[mesh.elements]
        self.shape, self.grad, detj, self.gp_xy = hmesh.element_geometry(coords, rule)
        r_gp = self.gp_xy[..., 0]
        self.wdetr = rule.weights[None, :] * detj * r_gp          # (n_el, n_gp)
        self.omega = np.einsum("eg,ga->ea", self.wdetr, self.shape)
        # lumped r-weighted volume of each node
        self.nodal_volume = np.zeros(mesh.n_nodes)
        np.add.at(self.nodal_volume, mesh.elements, self.omega)
        # fallback streamline length where the velocity vanishes
        self.h_fallback = np.sqrt(np.sum(rule.weights[None, :] * detj, axis=1))

        # per-equation row scaling -> all rows in "rate" units of comparable size
        rho_s = params.rho_s
        self.row_scale = np.array([1.0 / (rho_s * 1400.0), 100.0 / rho_s,
                                   1.0 / self.epsilon])

        # constrained dofs
        platen_nodes = mesh.node_tags[hmesh.PLATEN]
        self.platen_nodes = platen_nodes
        self.platen_tdofs = N_VARS * platen_nodes + IDX_T
        rim_nodes = mesh.node_tags[hmesh.EXTERNAL]
        self.rim_nodes = rim_nodes
        self.rim_hdofs = N_VARS * rim_nodes + IDX_H
        self.rim_adofs = N_VARS * rim_nodes + IDX_A
        self.rim_tdofs = N_VARS * rim_nodes + IDX_T

        # element dof map for gather/scatter
        self.elem_dofs = (
            N_VARS * mesh.elements[:, :, None] + np.arange(N_VARS)[None, None, :]
        ).reshape(-1, 4 * N_VARS)

    # -- constraint values ---------------------------------------------------

    def rim_moisture_bc(self, t_node):
        """Moisture in equilibrium with the exterior air at rim temperature."""
        hr = np.clip(100.0 * self.p_v_atm / props.saturated_vapor_pressure(t_node),
                     0.0, 100.0)
        return self.params.isotherm.emc(t_node, hr)

    def rim_air_bc(self, t_node):
        """Air density holding the exterior air partial pressure at rim T."""
        return self.p_a_atm * self.params.mm_air / (
            self.params.r_gas * (np.asarray(t_node, dtype=float) + KELVIN)
        )

    def _rim_targets(self, u):
        """(moisture, air density) targets of the rim nodes of ``u``."""
        t_rim = u[self.rim_tdofs]
        return self.rim_moisture_bc(t_rim), self.rim_air_bc(t_rim)

    def _rim_slopes(self, u):
        """Centered-difference slopes of the rim targets with respect to
        the rim nodes' own temperature."""
        t_rim = u[self.rim_tdofs]
        dt = 1e-6 * np.maximum(np.abs(t_rim), 1.0)
        dh_dt = (self.rim_moisture_bc(t_rim + dt)
                 - self.rim_moisture_bc(t_rim - dt)) / (2.0 * dt)
        da_dt = (self.rim_air_bc(t_rim + dt)
                 - self.rim_air_bc(t_rim - dt)) / (2.0 * dt)
        return dh_dt, da_dt

    def constrained_dofs(self):
        """Indices of all Dirichlet rows."""
        if self.sealed_radius:
            return self.platen_tdofs
        return np.concatenate([self.platen_tdofs, self.rim_hdofs, self.rim_adofs])

    def constraint_residual(self, u, t):
        """(dofs, residual values) for the Dirichlet rows at time t."""
        parts = [u[self.platen_tdofs] - self.platen_temperature(t)]
        if not self.sealed_radius:
            h_bc, a_bc = self._rim_targets(u)
            parts += [u[self.rim_hdofs] - h_bc, u[self.rim_adofs] - a_bc]
        return self.constrained_dofs(), np.concatenate(parts)

    def apply_dirichlet(self, u, t):
        """Overwrite constrained dofs with their target values (in place).

        Used by the explicit scheme, which integrates only the free rows.
        """
        u[self.platen_tdofs] = self.platen_temperature(t)
        if not self.sealed_radius:
            u[self.rim_hdofs], u[self.rim_adofs] = self._rim_targets(u)
        return u

    def constraint_jacobian_entries(self, u, t):
        """(rows, cols, vals) triplets for the Dirichlet rows.

        Unit diagonal per constrained dof plus, for the rim rows, the
        sensitivity of the target to the node's own temperature.
        """
        dofs = self.constrained_dofs()
        rows = [dofs]
        cols = [dofs]
        vals = [np.ones(len(dofs))]
        if not self.sealed_radius:
            dh_dt, da_dt = self._rim_slopes(u)
            rows += [self.rim_hdofs, self.rim_adofs]
            cols += [self.rim_tdofs, self.rim_tdofs]
            vals += [-dh_dt, -da_dt]
        return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)

    # -- element-level evaluation ---------------------------------------------

    def _gather(self, u):
        """Element-local copies of the state, shape (n_el, 4, 3)."""
        return u[self.elem_dofs].reshape(-1, 4, N_VARS)

    def _at_gauss(self, f):
        """Corner values (n_el, 4) interpolated to the quadrature points."""
        return np.einsum("ga,ea->eg", self.shape, f)

    def _grad_at_gauss(self, f):
        """(d/dr, d/dz) of corner values at the quadrature points."""
        return np.einsum("egad,ea->egd", self.grad, f)

    def _corner_state(self, ue):
        """Constitutive state of the element-local states ``ue``."""
        t_n, h_n = ue[:, :, 0], ue[:, :, 1]
        th = derive_thermo(t_n, h_n, ue[:, :, 2], self.params, self.epsilon)
        rv_t, rv_h = vapor_density_partials(t_n, h_n, th.hr, self.params)
        return CornerState(th, rv_t, rv_h, th.rho_v)

    def _gauss_velocity(self, th):
        """Darcy gas velocity (V_r, V_z) at the quadrature points."""
        return darcy_velocity(self._grad_at_gauss(th.p_total),
                              self._at_gauss(th.perm_xy / th.viscosity),
                              self._at_gauss(th.perm_z / th.viscosity))

    def element_residual(self, ue, due, t, state=None):
        """Scaled element residual rows, shape (n_el, 4, 3).

        ``ue``/``due`` are element-local states and rates; summing the
        returned blocks over elements yields the unconstrained global
        residual.  ``state`` is ``_corner_state(ue)`` when the caller
        already has it.
        """
        if state is None:
            state = self._corner_state(ue)
        p = self.params
        eps = self.epsilon
        th = state.thermo
        val = self._at_gauss
        grad_of = self._grad_at_gauss
        t_live = ue[:, :, 0]
        a_live = ue[:, :, 2]

        rv_g = val(state.rho_v)
        rvc_g = val(th.rho_v)  # advection coefficient
        a_g = val(a_live)
        kxy_g = val(th.kappa_xy)
        kz_g = val(th.kappa_z)
        epsd_g = val(eps * th.diffusivity)

        g_t = grad_of(t_live)
        g_rv = grad_of(state.rho_v)
        g_a = grad_of(a_live)
        v_r, v_z = self._gauss_velocity(th)

        # fluxes at quadrature points
        f_t_r = kxy_g * g_t[..., 0]
        f_t_z = kz_g * g_t[..., 1]
        q_h_r = epsd_g * g_rv[..., 0] - v_r * rv_g
        q_h_z = epsd_g * g_rv[..., 1] - v_z * rv_g
        q_a_r = epsd_g * g_a[..., 0] - v_r * a_g
        q_a_z = epsd_g * g_a[..., 1] - v_z * a_g

        re = np.zeros(ue.shape)
        w = self.wdetr
        gr = self.grad
        # sensible heat advected by the vapor (latent part is in mdot)
        adv_t = rvc_g * p.cp_vapor * (v_r * g_t[..., 0] + v_z * g_t[..., 1])
        re[:, :, IDX_T] = np.einsum("eg,ega->ea", w * f_t_r, gr[..., 0]) \
            + np.einsum("eg,ega->ea", w * f_t_z, gr[..., 1]) \
            + np.einsum("eg,ga->ea", w * adv_t, self.shape)
        re[:, :, IDX_H] = np.einsum("eg,ega->ea", w * q_h_r, gr[..., 0]) \
            + np.einsum("eg,ega->ea", w * q_h_z, gr[..., 1])
        re[:, :, IDX_A] = np.einsum("eg,ega->ea", w * q_a_r, gr[..., 0]) \
            + np.einsum("eg,ega->ea", w * q_a_z, gr[..., 1])

        self._add_supg(re, v_r, v_z, rvc_g, kxy_g, kz_g, epsd_g,
                       adv_t, g_rv, g_a)

        if due is not None:
            # row-sum lumped storage plus the latent chain-rule coupling
            m_t, s_lat = self._energy_storage(th)
            d_t = due[:, :, IDX_T]
            d_h = due[:, :, IDX_H]
            mdot = eps * (state.rv_t * d_t + state.rv_h * d_h) \
                - (p.rho_s / 100.0) * d_h
            re[:, :, IDX_T] += m_t * d_t + s_lat * mdot
            re[:, :, IDX_H] += (p.rho_s / 100.0) * self.omega * d_h
            re[:, :, IDX_A] += eps * self.omega * due[:, :, IDX_A]

        return re * self.row_scale[None, None, :]

    def _energy_storage(self, th):
        """Lumped heat capacity and latent weight of each element corner."""
        cp_g = self._at_gauss(th.cp)
        lamql_g = self._at_gauss(th.latent + th.sorption)
        m_t = np.einsum("eg,ga->ea", self.wdetr * cp_g, self.shape) * self.params.rho_s
        s_lat = np.einsum("eg,ga->ea", self.wdetr * lamql_g, self.shape)
        return m_t, s_lat

    def _add_supg(self, re, v_r, v_z, rvc_g, kxy_g, kz_g, epsd_g,
                  strong_t, g_rv, g_a):
        """Streamline perturbation of the test functions on convective terms."""
        p = self.params
        v_mag = np.sqrt(v_r**2 + v_z**2 + 1e-300)
        s_r = v_r / v_mag
        s_z = v_z / v_mag
        # streamline element length h = 2 / sum_a |s . grad N_a|
        proj = np.abs(np.einsum("eg,ega->ega", s_r, self.grad[..., 0])
                      + np.einsum("eg,ega->ega", s_z, self.grad[..., 1]))
        denom = proj.sum(axis=2)
        h_s = np.where(denom > 1e-12, 2.0 / np.maximum(denom, 1e-12),
                       self.h_fallback[:, None])

        a_dot_gn = np.einsum("eg,ega->ega", v_r, self.grad[..., 0]) \
            + np.einsum("eg,ega->ega", v_z, self.grad[..., 1])

        # energy: advective coefficient rho_v cp_vapor V, directional conductivity
        a_t = rvc_g * p.cp_vapor * v_mag
        kappa_dir = kxy_g * s_r**2 + kz_g * s_z**2
        tau_t = tau_supg(a_t, h_s, np.maximum(kappa_dir, 1e-12))
        re[:, :, IDX_T] += np.einsum(
            "eg,ega->ea", self.wdetr * tau_t * rvc_g * p.cp_vapor * strong_t, a_dot_gn
        )

        # moisture and air share velocity and diffusivity, hence tau
        tau_m = tau_supg(v_mag, h_s, np.maximum(epsd_g, 1e-30))
        strong_h = v_r * g_rv[..., 0] + v_z * g_rv[..., 1]
        strong_a = v_r * g_a[..., 0] + v_z * g_a[..., 1]
        re[:, :, IDX_H] += np.einsum("eg,ega->ea",
                                     self.wdetr * tau_m * strong_h, a_dot_gn)
        re[:, :, IDX_A] += np.einsum("eg,ega->ea",
                                     self.wdetr * tau_m * strong_a, a_dot_gn)

    # -- global residual -----------------------------------------------------

    def residual(self, u, dudt, t, constrained=True):
        """Global residual; rows of constrained dofs replaced when asked."""
        ue = self._gather(u)
        due = None if dudt is None else self._gather(dudt)
        re = self.element_residual(ue, due, t)
        r = np.zeros(self.n_dofs)
        np.add.at(r, self.elem_dofs, re.reshape(-1, 4 * N_VARS))
        if constrained:
            dofs, vals = self.constraint_residual(u, t)
            r[dofs] = vals
        return r

    def ode_rates(self, u, t):
        """Closed-form du/dt of the lumped ODE system (explicit scheme).

        Moisture and air rows invert their diagonal storage directly; the
        energy row then resolves the latent coupling to dH/dt in closed
        form.  Constrained dofs get rate zero (their values are assigned,
        not integrated).
        """
        p = self.params
        eps = self.epsilon
        ue = self._gather(u)
        state = self._corner_state(ue)
        re = self.element_residual(ue, None, t, state)  # spatial part only, scaled
        m_t, s_lat = self._energy_storage(state.thermo)

        sc = self.row_scale
        n = self.mesh.n_nodes
        rsp = np.zeros(self.n_dofs)
        np.add.at(rsp, self.elem_dofs, re.reshape(-1, 4 * N_VARS))

        def scatter(field, scale):
            out = np.zeros(n)
            np.add.at(out, self.mesh.elements, field * scale)
            return out

        m_tt = scatter(m_t + s_lat * eps * state.rv_t, sc[IDX_T])
        c_th = scatter(s_lat * (eps * state.rv_h - p.rho_s / 100.0), sc[IDX_T])

        r_t = rsp[IDX_T::N_VARS]
        r_h = rsp[IDX_H::N_VARS]
        r_a = rsp[IDX_A::N_VARS]
        d_h = -r_h / (self.nodal_volume * (p.rho_s / 100.0 * sc[IDX_H]))
        d_a = -r_a / (self.nodal_volume * (eps * sc[IDX_A]))
        d_t = (-r_t - c_th * d_h) / m_tt

        if not self.sealed_radius:
            # rim energy rows: the moisture rate entering the latent coupling
            # follows the constraint H = H_bc(T), not the free moisture row
            rim = self.rim_nodes
            h_slope, _ = self._rim_slopes(u)
            d_t[rim] = -r_t[rim] / (m_tt[rim] + c_th[rim] * h_slope)
            d_h[rim] = h_slope * d_t[rim]

        rates = np.zeros(self.n_dofs)
        rates[IDX_T::N_VARS] = d_t
        rates[IDX_H::N_VARS] = d_h
        rates[IDX_A::N_VARS] = d_a
        rates[self.constrained_dofs()] = 0.0
        return rates

    # -- diagnostics ---------------------------------------------------------

    def recover_velocity(self, u):
        """Nodal Darcy gas velocity (n_nodes, 2) [m/s].

        The element pressure gradient is piecewise-discontinuous; nodal
        values are the volume-weighted average of the quadrature-point
        velocities (standard lumped L2 recovery).
        """
        ue = self._gather(u)
        th = derive_thermo(ue[:, :, IDX_T], ue[:, :, IDX_H], ue[:, :, IDX_A],
                           self.params, self.epsilon)
        v_r_g, v_z_g = self._gauss_velocity(th)
        num = np.zeros((self.mesh.n_nodes, 2))
        np.add.at(num[:, 0], self.mesh.elements,
                  np.einsum("eg,ga->ea", self.wdetr * v_r_g, self.shape))
        np.add.at(num[:, 1], self.mesh.elements,
                  np.einsum("eg,ga->ea", self.wdetr * v_z_g, self.shape))
        return num / self.nodal_volume[:, None]

    def lumped_water(self, u):
        """Water functional conserved by the sealed variant:
        integral of rho_s * H * r over the section (lumped quadrature)."""
        h = u[IDX_H::N_VARS]
        return float(self.params.rho_s * np.sum(self.nodal_volume * h) / 100.0)

    def water_balance(self, u_old, u_new, dt, t_new):
        """Per-step water bookkeeping of the open variant.

        Returns (storage_rate, rim_influx): the lumped storage change per
        second and the net flux entering through the constrained rim rows
        (their unconstrained residuals).  At a converged implicit step the
        two are equal.
        """
        rate = (u_new - u_old) / dt
        raw = self.residual(u_new, rate, t_new, constrained=False)
        # reaction of a constrained row = boundary flux the constraint supplies
        rim_influx = float(np.sum(raw[self.rim_hdofs])) / self.row_scale[IDX_H]
        h_old = u_old[IDX_H::N_VARS]
        h_new = u_new[IDX_H::N_VARS]
        storage_rate = float(
            self.params.rho_s / 100.0 * np.sum(self.nodal_volume * (h_new - h_old)) / dt
        )
        return storage_rate, rim_influx

    def stable_dt_advisory(self, u):
        """Diffusive time-step bound 0.25 * h_min^2 / alpha for state ``u``.

        Advisory only (the implicit scheme is unconditionally stable).
        ``alpha`` is the largest conductive or steam-air diffusivity over
        the nodes of ``u``.  The steam-air diffusivity varies as
        1/P_total, so a near-vacuum pore gas sets the limit.
        """
        th = derive_thermo(*state_fields(u), self.params, self.epsilon)
        kappa = np.maximum(th.kappa_xy, th.kappa_z)
        alpha = max(float(np.max(kappa / (self.params.rho_s * th.cp))),
                    float(np.max(th.diffusivity)))
        coords = self.mesh.nodes[self.mesh.elements]
        h_min = min(
            float(np.min(np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1))),
            float(np.min(np.linalg.norm(coords[:, 3] - coords[:, 0], axis=1))),
        )
        return 0.25 * h_min**2 / alpha
