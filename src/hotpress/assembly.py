"""Weak-form assembly of the coupled heat / moisture / air system.

Unknowns per node: temperature T [degC], moisture content H [% dry mass]
and dry-air density rho_a [kg/m3], interleaved as ``u[3*j + c]``.

The semi-discrete system integrated by the solver is

    M(u) du/dt = -R_spatial(u, t)

where ``M`` is a row-sum lumped mass operator per node (heat capacity,
moisture storage, air storage, plus the latent evaporation coupling of the
energy row to dT/dt and dH/dt through the vapor-density chain rule), and
``R_spatial`` is one Petrov-Galerkin statement for the three balances
(T, H, rho_a).  Corner a of an element receives

    R_a = sum_g w (grad N_a . F + N_a S + tau c V . grad N_a)
    F = [kappa grad T,  eps D grad rho_v - V rho_v,  eps D grad rho_a - V rho_a]
    c = [rho_v cp_vapor V . grad T,  V . grad rho_v,  V . grad rho_a],  S = [c_T, 0, 0]

over its 2x2 Gauss points g, with weights w = w_g det(J) r (the
axisymmetric factor 2 pi is common to every term and dropped): the (2, 3)
flux F, the sensible-heat source S, and the streamline (SUPG) perturbation
of the test function with the time scales ``tau`` of
``PressSystem._supg_tau`` (Brooks & Hughes 1982).  As sum_a grad N_a = 0,
the moisture and air rows of each element sum to zero over its corners:
the scheme is conservative element by element.

The energy row charges the phase-change heat once, through
``(lambda + Q) * mdot`` with the evaporation rate
``mdot = eps d(rho_v)/dt - (rho_s/100) dH/dt``.  The moisture row makes
``-(rho_s/100) dH/dt`` the divergence of the vapor flux, so ``mdot``
already contains the latent heat the gas carries; the gas convects only
its sensible heat, S, in advective form, which needs no rim boundary term:
gas leaves the open rim at the local temperature and the rim keeps zero
conductive flux.

``PressSystem.residual(u, dudt, t)`` evaluates
``M(u)*dudt + R_spatial(u, t)`` with equation rows scaled to comparable
magnitudes, then replaces constrained rows (platen temperature, rim
equilibrium) by their Dirichlet residuals.  The residual is exactly zero for
a uniform state in equilibrium with all boundary values.

The material laws are pointwise, so the constitutive state is evaluated
at the nodes, in one place: ``PressSystem.nodal_state`` calls
``derive_thermo`` (closed-form isotherm inversion) and
``vapor_density_partials`` (closed-form slopes of rho_v) once per node.
The residual, the explicit rates, velocity recovery and the snapshots
gather its records to element corners through ``mesh.elements``; the
finite-difference Jacobian splices corners from perturbed nodal states.
``PressSystem`` has no verification modes: the manufactured-solution and
frozen-coefficient systems are subclasses in ``verification``.
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

# One record of the constitutive state per node (PressSystem.nodal_state),
# SI units.  ``rho_v`` is the vapor density the moisture flux carries and
# ``rho_v_adv`` the one carrying sensible heat, equal except in the
# frozen-coefficient system; ``rv_t``, ``rv_h`` are d(rho_v)/dT and
# d(rho_v)/dH, ``mob_*`` the gas mobilities K/mu and ``heat`` the latent
# plus sorption heat.
NODAL_STATE = np.dtype([(name, float) for name in (
    "rho_v", "rho_v_adv", "rv_t", "rv_h", "p_vapor", "p_total", "kappa_xy",
    "kappa_z", "mob_xy", "mob_z", "diffusivity", "cp", "heat")])


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


def fd_step(u, eps_rel):
    """Finite-difference step of every dof of ``u``: relative to the value,
    bottoming out at ``STATE_SCALE`` near zero."""
    return eps_rel * np.maximum(np.abs(u), np.tile(STATE_SCALE, u.size // N_VARS))


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
    p_vapor: np.ndarray      # N/m2
    rho_v: np.ndarray        # kg/m3
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
        p_vapor=p_vapor,
        rho_v=rho_v,
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


def _along(vec, grad):
    """vec . grad at the quadrature points, (n_el, n_gp, 2) . (n_el, n_gp, 2, k)."""
    return vec[..., 0, None] * grad[:, :, 0] + vec[..., 1, None] * grad[:, :, 1]


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
        self.shape, grad, detj, self.gp_xy = hmesh.element_geometry(coords, rule)
        wdetr = rule.weights[None, :] * detj * self.gp_xy[..., 0]  # (n_el, n_gp)
        # element operators for batched matmuls: ``shape`` and ``grad_gauss``
        # (rows g*2 + d) take corner fields (n_el, 4, k) to the quadrature
        # points, ``n_test`` (w N_a) and ``grad_test`` (w dN_a/dx_d) back
        self.grad_gauss = grad.transpose(0, 1, 3, 2).reshape(len(grad), -1, 4)
        self.n_test = np.einsum("eg,ga->eag", wdetr, self.shape)
        self.grad_test = np.einsum("eg,egad->eagd", wdetr, grad).reshape(
            len(grad), 4, -1)
        self.omega = self.n_test.sum(axis=2)
        # lumped r-weighted volume of each node
        self.nodal_volume = self._assemble(self.omega[..., None])[:, 0]
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

    def constrained_dofs(self):
        """Indices of all Dirichlet rows."""
        if self.sealed_radius:
            return self.platen_tdofs
        return np.concatenate([self.platen_tdofs, self.rim_hdofs, self.rim_adofs])

    def constraint_targets(self, u, t):
        """Values the Dirichlet rows hold at time t, in the order of
        ``constrained_dofs``.  A target may depend on the state of its own
        node only (``constraint_slopes`` relies on it)."""
        parts = [np.full(len(self.platen_tdofs), self.platen_temperature(t))]
        if not self.sealed_radius:
            parts += self._rim_targets(u)
        return np.concatenate(parts)

    def constraint_slopes(self, u, t, eps_rel=1e-7):
        """Derivatives of ``constraint_targets`` with respect to each
        variable of the constrained dof's own node, shape (n_dofs, 3) and
        zero on free rows: one centered difference per variable, every
        node stepped at once by ``fd_step``."""
        dofs = self.constrained_dofs()
        delta = fd_step(u, eps_rel)
        slopes = np.zeros((self.n_dofs, N_VARS))
        for c in range(N_VARS):
            step = np.zeros_like(u)
            step[c::N_VARS] = delta[c::N_VARS]
            slopes[dofs, c] = (self.constraint_targets(u + step, t)
                               - self.constraint_targets(u - step, t)) \
                / (2.0 * step[dofs - dofs % N_VARS + c])
        return slopes

    def apply_dirichlet(self, u, t):
        """Overwrite constrained dofs with their target values (in place).

        Used by the explicit scheme, which integrates only the free rows.
        Assigned twice: a rim target follows its node's temperature, which
        the first pass sets where the rim meets the platen.
        """
        dofs = self.constrained_dofs()
        for _ in range(2):
            u[dofs] = self.constraint_targets(u, t)
        return u

    # -- element-level evaluation ---------------------------------------------

    def _gather(self, u):
        """Element-local copies of the state, shape (n_el, 4, 3)."""
        return u[self.elem_dofs].reshape(-1, 4, N_VARS)

    def _assemble(self, blocks):
        """Sum element-corner blocks (n_el, 4, k) into nodal rows
        (n_nodes, k); with k = 3 the rows ravel to the interleaved dofs."""
        k = blocks.shape[-1]
        slots = (k * self.mesh.elements[..., None] + np.arange(k)).ravel()
        return np.bincount(slots, weights=blocks.ravel(),
                           minlength=k * self.mesh.n_nodes).reshape(-1, k)

    def _at_gauss(self, f):
        """Corner fields (n_el, 4, k) interpolated to the quadrature
        points, shape (n_el, n_gp, k)."""
        return self.shape @ f

    def _grad_at_gauss(self, f):
        """(d/dr, d/dz) of corner fields (n_el, 4, k) at the quadrature
        points, shape (n_el, n_gp, 2, k)."""
        return (self.grad_gauss @ f).reshape(len(f), -1, 2, f.shape[-1])

    def nodal_state(self, u):
        """One ``NODAL_STATE`` record per node of ``u``: the one place the
        material laws are evaluated.  ``[mesh.elements]`` gathers the
        records to the element corners, shape (n_el, 4)."""
        t_c, h, rho_a = state_fields(u)
        th = derive_thermo(t_c, h, rho_a, self.params, self.epsilon)
        s = np.empty(len(t_c), dtype=NODAL_STATE)
        s["rho_v"] = s["rho_v_adv"] = th.rho_v
        s["rv_t"], s["rv_h"] = vapor_density_partials(t_c, h, th.hr, self.params)
        s["p_vapor"], s["p_total"] = th.p_vapor, th.p_total
        s["kappa_xy"], s["kappa_z"] = th.kappa_xy, th.kappa_z
        s["mob_xy"] = th.perm_xy / th.viscosity
        s["mob_z"] = th.perm_z / th.viscosity
        s["diffusivity"], s["cp"] = th.diffusivity, th.cp
        s["heat"] = th.latent + th.sorption
        return s

    def _gauss_velocity(self, corners):
        """Darcy gas velocity (n_el, n_gp, 2) at the quadrature points."""
        mob = self._at_gauss(np.stack([corners["mob_xy"], corners["mob_z"]], axis=-1))
        grad_p = self._grad_at_gauss(corners["p_total"][..., None])[..., 0]
        return np.stack(darcy_velocity(grad_p, mob[..., 0], mob[..., 1]), axis=-1)

    def element_residual(self, ue, due, t, corners):
        """Scaled element residual rows, shape (n_el, 4, 3).

        ``ue``/``due`` are element-local states and rates, and ``corners``
        is the nodal state gathered to the element corners; summing the
        returned blocks over elements yields the unconstrained global
        residual.  The spatial part is the weak form of the module
        docstring, one statement for the three balances.
        """
        p = self.params
        # (T, rho_v, rho_a): what each balance conducts or diffuses, and
        # what the gas convects
        carried = np.stack([ue[:, :, IDX_T], corners["rho_v"], ue[:, :, IDX_A]],
                           axis=-1)
        u_g = self._at_gauss(carried)
        grad_u = self._grad_at_gauss(carried)                 # (n_el, n_gp, 2, 3)
        coef = self._at_gauss(np.stack(
            [corners["kappa_xy"], corners["kappa_z"],
             self.epsilon * corners["diffusivity"], corners["rho_v_adv"]], axis=-1))
        kappa, eps_d = coef[..., :2], coef[..., 2]
        heat_adv = coef[..., 3] * p.cp_vapor                  # rho_v,adv cp_vapor
        vel = self._gauss_velocity(corners)

        # F: conduction; interdiffusion less the convection of rho_v, rho_a
        flux = np.empty_like(grad_u)
        flux[..., IDX_T] = kappa * grad_u[..., IDX_T]
        flux[..., IDX_H:] = eps_d[..., None, None] * grad_u[..., IDX_H:] \
            - vel[..., None] * u_g[:, :, None, IDX_H:]
        # c = V . grad(T, rho_v, rho_a); the vapor carries sensible heat
        conv = _along(vel, grad_u)
        conv[..., IDX_T] *= heat_adv
        tau = self._supg_tau(vel, kappa, eps_d, heat_adv)

        # dN_a pairs with F and, through the streamline test function
        # tau V . grad N_a, with tau c V; N_a with S = c_T
        re = self.grad_test @ (flux + vel[..., None] * (tau * conv)[:, :, None, :]
                               ).reshape(len(ue), -1, N_VARS)
        re[:, :, IDX_T] += (self.n_test @ conv[..., IDX_T, None])[..., 0]

        if due is not None:
            c_tt, c_th = self._energy_storage(corners)
            d_t = due[:, :, IDX_T]
            d_h = due[:, :, IDX_H]
            re[:, :, IDX_T] += c_tt * d_t + c_th * d_h
            re[:, :, IDX_H] += (p.rho_s / 100.0) * self.omega * d_h
            re[:, :, IDX_A] += self.epsilon * self.omega * due[:, :, IDX_A]

        return re * self.row_scale[None, None, :]

    def _energy_storage(self, corners):
        """Row-sum lumped energy storage of each element corner: the
        coefficients (c_tt, c_th) of dT/dt and dH/dt in the energy row.

        The phase-change heat is charged once, as (lambda + Q) * mdot with
        mdot = eps (rv_t dT/dt + rv_h dH/dt) - (rho_s/100) dH/dt.
        """
        p = self.params
        m = self.n_test @ self._at_gauss(
            np.stack([corners["cp"], corners["heat"]], axis=-1))
        m_t = m[..., 0] * p.rho_s
        s_lat = m[..., 1]
        c_tt = m_t + s_lat * self.epsilon * corners["rv_t"]
        c_th = s_lat * (self.epsilon * corners["rv_h"] - p.rho_s / 100.0)
        return c_tt, c_th

    def _supg_tau(self, vel, kappa, eps_d, heat_adv):
        """Streamline time scales (n_el, n_gp, 3) of the three balances.

        Row c tests its convective term c_c against tau_c V . grad N_a
        (Brooks & Hughes 1982).  The energy entry carries the coefficient
        ``heat_adv`` = rho_v cp_vapor of its convective term once more, as
        its streamline speed is heat_adv |V|; moisture and air share
        velocity and diffusivity, hence tau.
        """
        v_mag = np.sqrt(vel[..., 0]**2 + vel[..., 1]**2 + 1e-300)
        s = vel / v_mag[..., None]
        # streamline element length h = 2 / sum_a |s . grad N_a|
        denom = np.abs(_along(s, self.grad_gauss.reshape(len(vel), -1, 2, 4))
                       ).sum(axis=-1)
        h_s = np.where(denom > 1e-12, 2.0 / np.maximum(denom, 1e-12),
                       self.h_fallback[:, None])
        kappa_dir = kappa[..., 0] * s[..., 0]**2 + kappa[..., 1] * s[..., 1]**2
        tau = np.empty(v_mag.shape + (N_VARS,))
        tau[..., IDX_T] = heat_adv * tau_supg(
            heat_adv * v_mag, h_s, np.maximum(kappa_dir, 1e-12))
        tau[..., IDX_H:] = tau_supg(v_mag, h_s, np.maximum(eps_d, 1e-30))[..., None]
        return tau

    # -- global residual -----------------------------------------------------

    def residual(self, u, dudt, t, constrained=True):
        """Global residual; rows of constrained dofs replaced when asked."""
        ue = self._gather(u)
        due = None if dudt is None else self._gather(dudt)
        corners = self.nodal_state(u)[self.mesh.elements]
        r = self._assemble(self.element_residual(ue, due, t, corners)).ravel()
        if constrained:
            dofs = self.constrained_dofs()
            r[dofs] = u[dofs] - self.constraint_targets(u, t)
        return r

    def ode_rates(self, u, t):
        """Closed-form du/dt of the lumped ODE system (explicit scheme).

        Moisture and air rows invert their diagonal storage directly; the
        energy row then resolves the latent coupling to dH/dt in closed
        form.  Constrained dofs get rate zero (their values are assigned,
        not integrated).
        """
        p = self.params
        corners = self.nodal_state(u)[self.mesh.elements]
        # spatial part only, scaled
        re = self.element_residual(self._gather(u), None, t, corners)
        c_tt, c_th = self._energy_storage(corners)

        sc = self.row_scale
        r_t, r_h, r_a = self._assemble(re).T
        m_tt, c_th = self._assemble(np.stack([c_tt, c_th], axis=-1) * sc[IDX_T]).T
        d_h = -r_h / (self.nodal_volume * (p.rho_s / 100.0 * sc[IDX_H]))
        d_a = -r_a / (self.nodal_volume * (self.epsilon * sc[IDX_A]))
        d_t = (-r_t - c_th * d_h) / m_tt

        if not self.sealed_radius:
            # rim energy rows: the moisture rate entering the latent coupling
            # follows the constraint H = H_bc(T), not the free moisture row
            rim = self.rim_nodes
            h_slope = self.constraint_slopes(u, t)[self.rim_hdofs, IDX_T]
            d_t[rim] = -r_t[rim] / (m_tt[rim] + c_th[rim] * h_slope)
            d_h[rim] = h_slope * d_t[rim]

        rates = pack_state(d_t, d_h, d_a)
        rates[self.constrained_dofs()] = 0.0
        return rates

    # -- diagnostics ---------------------------------------------------------

    def recover_velocity(self, state):
        """Nodal Darcy gas velocity (n_nodes, 2) [m/s] of the nodal state
        ``state`` (from ``nodal_state``).

        The element pressure gradient is piecewise-discontinuous; nodal
        values are the volume-weighted average of the quadrature-point
        velocities (standard lumped L2 recovery).
        """
        vel = self._gauss_velocity(state[self.mesh.elements])
        return self._assemble(self.n_test @ vel) / self.nodal_volume[:, None]

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
        s = self.nodal_state(u)
        kappa = np.maximum(s["kappa_xy"], s["kappa_z"])
        alpha = max(float(np.max(kappa / (self.params.rho_s * s["cp"]))),
                    float(np.max(s["diffusivity"])))
        coords = self.mesh.nodes[self.mesh.elements]
        h_min = min(
            float(np.min(np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1))),
            float(np.min(np.linalg.norm(coords[:, 3] - coords[:, 0], axis=1))),
        )
        return 0.25 * h_min**2 / alpha
