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
at the nodes, in one place: ``PressSystem.nodal_state`` is one call of
``derive_thermo``, a single pass that inverts the isotherm once per node,
for the humidity and both its slopes, into a float array with one row per
node and the columns ``P_TOTAL`` ... ``P_VAPOR``, T and rho_a among them.
The residual, the explicit rates, velocity recovery and the snapshots
gather its rows to element corners through ``mesh.elements``.  The element
residual reads two slices of the corners: the columns up to ``RHO_A``
(P_total, T, rho_v, rho_a), whose gradients it takes with one product,
and those up to ``MOB_Z``, whose values it interpolates with another.
The finite-difference Jacobian splices corner rows from perturbed nodal
states and sums its element blocks into the BSR nodal blocks of
``PressSystem.newton_order`` through the ``element_slots`` of that
:class:`NodalOrder`, which builds its pattern from ``mesh.elements``.
``PressSystem`` has no verification modes: the manufactured-solution and
frozen-coefficient systems are subclasses in ``verification``.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from scipy.sparse import csc_matrix

from . import mesh as hmesh
from . import properties as props
from .errors import DomainError, StepError
from .properties import CP_VAPOR, KELVIN, MM_AIR, R_GAS

N_VARS = 3
IDX_T, IDX_H, IDX_A = 0, 1, 2

# finite-difference scales per unknown type: relative steps bottom out at
# these magnitudes so derivatives stay resolvable near zero values
STATE_SCALE = np.array([1.0, 1.0, 0.1])  # degC, %, kg/m3
# relative finite-difference step of the Jacobian and the constraint slopes
FD_STEP_REL = 1e-7
# roundoff allowance below zero for moisture [%] (see validate_state)
H_UNDERSHOOT_TOL = 1e-9

# interdiffusion needs a total pressure; keep the degenerate dry/vacuum
# state evaluable without affecting any scenario-reachable state
PRESSURE_FLOOR = 100.0  # N/m2

# Columns of the constitutive state, one row per node
# (PressSystem.nodal_state), SI units.  TEMP and RHO_A repeat the state;
# RHO_V is the vapor density, which the gas carries with the moisture flux
# and its sensible heat; RV_T, RV_H are d(rho_v)/dT and d(rho_v)/dH, MOB_*
# the gas mobilities K/mu and HEAT the latent plus sorption heat.  The
# element residual differentiates the columns up to RHO_A and interpolates
# those up to MOB_Z, each as one slice; CP, HEAT are its storage slice.
N_NODAL = 14
(P_TOTAL, TEMP, RHO_V, RHO_A, KAPPA_XY, KAPPA_Z, DIFFUSIVITY,
 MOB_XY, MOB_Z, CP, HEAT, RV_T, RV_H, P_VAPOR) = range(N_NODAL)


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


def fd_step(u):
    """Finite-difference step of every dof of ``u``: ``FD_STEP_REL``
    relative to the value, bottoming out at ``STATE_SCALE`` near zero."""
    return FD_STEP_REL * np.maximum(np.abs(u),
                                    np.tile(STATE_SCALE, u.size // N_VARS))


class NodalOrder:
    """The block pattern of a matrix of dense nodal blocks summed from
    element blocks, and its layout in a node order.

    Unknown ``3k + i`` is variable i of node k.  The pattern is the
    canonical BSR structure (``indptr``, ``indices``) of the matrices it
    serves: one block for each pair of nodes that share an element of
    ``elements`` (n_el, k), every node's diagonal block among them.  Such
    a matrix keeps its 3x3 blocks in ``data``, in pattern order.
    ``block_row`` is the node of each block row and ``diag`` the index of
    each node's diagonal block.  ``element_slots`` (n_el, 3k, 3k) says
    where entry ``(e, 3a + i, 3b + j)`` of the element blocks lies in the
    raveled nodal blocks: variable j of corner b in the row of variable i
    of corner a.
    ``csc(blocks)`` lays blocks out as the CSC matrix ``P A P^T``, where
    ``(P x)[m] = x[dofs[m]]`` and ``dofs`` keeps the unknowns of a node
    together in ``node_order``.  The maps are built once, by sorting.
    """

    def __init__(self, elements, n_nodes, node_order):
        b = N_VARS
        n = b * n_nodes
        n_el, k = elements.shape
        pairs, block = np.unique(
            elements[:, :, None] * n_nodes + elements[:, None, :],
            return_inverse=True)
        self.block_row, self.indices = np.divmod(pairs, n_nodes)
        self.indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(self.block_row, minlength=n_nodes))))
        nodes = np.arange(n_nodes)
        self.diag = np.searchsorted(pairs, nodes * (n_nodes + 1))
        self.dofs = (b * np.asarray(node_order)[:, None] + np.arange(b)).ravel()
        var = np.arange(b)
        self.element_slots = (
            (block.reshape(n_el, k, 1, k, 1) * b + var[:, None, None]) * b + var
        ).reshape(n_el, k * b, k * b)

        rank = np.empty(n_nodes, dtype=int)
        rank[node_order] = nodes
        i, j = np.indices((b, b))
        new_rows = (b * rank[self.block_row][:, None, None] + i).ravel()
        new_cols = (b * rank[self.indices][:, None, None] + j).ravel()
        self.csc_order = np.argsort(new_cols * n + new_rows)
        self.csc_indices = new_rows[self.csc_order].astype(np.int32)
        self.csc_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(new_cols, minlength=n)))
        ).astype(np.int32)
        self.shape = (n, n)

    def csc(self, blocks):
        """``P A P^T`` in CSC form, from the nodal blocks of A."""
        return csc_matrix((blocks.ravel()[self.csc_order], self.csc_indices,
                           self.csc_indptr), shape=self.shape)


def validate_state(u, a_tol=H_UNDERSHOOT_TOL):
    """Raise StepError when a state violates basic physical bounds.

    Moisture may undershoot zero by the roundoff ``H_UNDERSHOOT_TOL``.

    Parameters
    ----------
    a_tol : float, optional
        Allowance below zero for air density [kg/m3]; defaults to
        ``H_UNDERSHOOT_TOL``.  The time loop passes a larger value: with a
        near-vacuum initial pore gas, the air field forms a steep layer
        against the rim value that a practical mesh cannot resolve, and
        the nodes just inside it undershoot zero by a few percent of the
        layer jump.  That dip is bounded and harmless to the
        thermodynamics, unlike the runaway states this check is for.
    """
    t_c, h_pct, rho_a = state_fields(u)
    bad = []
    if np.any(~np.isfinite(u)):
        bad.append("non-finite entries")
    else:
        if np.any(t_c <= -KELVIN):
            bad.append(f"temperature below absolute zero (min {t_c.min():.3f} degC)")
        if np.any(h_pct < -H_UNDERSHOOT_TOL):
            bad.append(f"negative moisture (min {h_pct.min():.3e} %)")
        if np.any(rho_a < -a_tol):
            bad.append(f"negative air density (min {rho_a.min():.3e} kg/m3)")
    if bad:
        raise StepError("; ".join(bad))


# ---------------------------------------------------------------------------
# pointwise thermodynamic state
# ---------------------------------------------------------------------------

def derive_thermo(t_c, h_pct, rho_a, params):
    """Constitutive state at (T, H, rho_a): one pass of the material laws
    into an array (..., N_NODAL) with the columns P_TOTAL ... P_VAPOR.

    The sorption surface is inverted once, for the relative humidity and
    both its slopes; P_sat is evaluated once and its slope derived from
    it; the board permeability is the constant ``params.perm_z``.  The air
    partial pressure follows from the gas law, the vapor density from the
    vapor-state fit and each transport coefficient from its correlation
    in ``properties``.  Moisture is clamped at zero for the constitutive
    evaluations so slightly-undershooting transients stay evaluable;
    below zero d(rho_v)/dH is zero.

    Parameters
    ----------
    t_c, h_pct, rho_a : float or ndarray
        State (broadcast together).
    params : MaterialParams
    """
    t_c, h_pct, rho_a = np.broadcast_arrays(np.asarray(t_c, dtype=float),
                                            np.asarray(h_pct, dtype=float),
                                            np.asarray(rho_a, dtype=float))
    h = np.maximum(h_pct, 0.0)
    t_k = t_c + KELVIN
    if np.any(t_k <= 0.0) or np.any(~np.isfinite(t_k)):
        raise DomainError("temperature at or below absolute zero")
    hr, hr_t, hr_h = params.isotherm.hr_from_emc(t_c, h)
    p_sat = props.saturated_vapor_pressure(t_c)

    s = np.empty(t_c.shape + (N_NODAL,))
    s[..., TEMP], s[..., RHO_A] = t_c, rho_a
    s[..., P_VAPOR] = (hr / 100.0) * p_sat
    s[..., RHO_V] = props.vapor_density(p_sat, hr)
    s[..., RV_T], s[..., RV_H] = vapor_density_partials(
        p_sat, props.saturated_vapor_pressure_slope(t_c, p_sat), hr, hr_t,
        np.where(h_pct < 0.0, 0.0, hr_h))
    s[..., P_TOTAL] = rho_a * R_GAS * t_k / MM_AIR + s[..., P_VAPOR]
    s[..., KAPPA_Z] = props.thermal_conductivity_z(t_c, h, params.rho_s)
    # in-plane conductivity and permeability: the fiber-mat anisotropy
    # ratios times the vertical ones
    s[..., KAPPA_XY] = params.kappa_anisotropy * s[..., KAPPA_Z]
    mu = props.gas_viscosity(t_c)
    s[..., MOB_XY] = params.perm_anisotropy * params.perm_z / mu
    s[..., MOB_Z] = params.perm_z / mu
    s[..., DIFFUSIVITY] = props.steam_air_diffusivity(
        np.maximum(s[..., P_TOTAL], PRESSURE_FLOOR), t_k)
    s[..., CP] = props.specific_heat(t_k, h / 100.0)
    s[..., HEAT] = props.latent_heat(t_c) + props.sorption_heat(h)
    return s


def vapor_density_partials(p_sat, p_sat_t, hr, hr_t, hr_h):
    """d(rho_v)/dT and d(rho_v)/dH from P_sat, its slope ``p_sat_t``, the
    relative humidity ``hr`` and its slopes ``hr_t``, ``hr_h``.

    rho_v is linear in P_sat(T) and in HR(T, H).  Where HR is clamped, at
    saturation and for H < 0, its slopes come in as zero and d(rho_v)/dT
    is the saturation-pressure term alone.
    """
    return (props.vapor_density(p_sat_t, hr) + props.vapor_density(p_sat, hr_t),
            props.vapor_density(p_sat, hr_h))


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
    (..., 2) array
        (V_r, V_z) [m/s], anti-parallel to the pressure gradient.
    """
    vel = np.negative(grad_p)
    vel[..., 0] *= mob_xy
    vel[..., 1] *= mob_z
    return vel


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
        self.epsilon = params.porosity
        self.n_dofs = N_VARS * mesh.n_nodes

        # exterior partial pressures (Dalton)
        self.p_v_atm = (self.hr_atm / 100.0) * props.saturated_vapor_pressure(self.t_atm)
        self.p_a_atm = self.p_atm - self.p_v_atm

        coords = mesh.nodes[mesh.elements]
        self.shape, grad, detj, self.gp_xy = hmesh.element_geometry(coords)
        wdetr = hmesh.GAUSS_WEIGHTS * detj * self.gp_xy[..., 0]  # (n_el, n_gp)
        # element operators for batched matmuls: ``shape`` and ``grad_gauss``
        # (rows g*2 + d) take corner fields (n_el, 4, k) to the quadrature
        # points, ``n_test`` (w N_a) and ``grad_test`` (w dN_a/dx_d) back;
        # ``mass`` (n_test shape) takes corner fields straight to their
        # sums against w N_a
        self.grad_gauss = grad.transpose(0, 1, 3, 2).reshape(len(grad), -1, 4)
        self.n_test = np.einsum("eg,ga->eag", wdetr, self.shape)
        self.grad_test = np.einsum("eg,egad->eagd", wdetr, grad).reshape(
            len(grad), 4, -1)
        self.mass = self.n_test @ self.shape
        # dN_a/dx_d with the axes (d, a, e, g): each (n_el, n_gp) slab is
        # one whole array, so sums over the corners a run over slabs
        self.grad_n = np.ascontiguousarray(grad.transpose(3, 2, 0, 1))
        self.omega = self.n_test.sum(axis=2)
        # lumped r-weighted volume of each node
        self.nodal_volume = self._assemble(self.omega[..., None])[:, 0]
        # fallback streamline length where the velocity vanishes
        self.h_fallback = np.sqrt(np.sum(hmesh.GAUSS_WEIGHTS * detj, axis=1))

        # per-equation row scaling -> all rows in "rate" units of comparable size
        rho_s = params.rho_s
        self.row_scale = np.array([1.0 / (rho_s * 1400.0), 100.0 / rho_s,
                                   1.0 / self.epsilon])

        # constrained dofs
        self.platen_tdofs = N_VARS * mesh.node_tags[hmesh.PLATEN] + IDX_T
        rim_nodes = mesh.node_tags[hmesh.EXTERNAL]
        self.rim_nodes = rim_nodes
        self.rim_hdofs = N_VARS * rim_nodes + IDX_H
        self.rim_adofs = N_VARS * rim_nodes + IDX_A
        self.rim_tdofs = N_VARS * rim_nodes + IDX_T
        # the Dirichlet rows, in the order of ``constraint_targets``
        self.constrained_dofs = self.platen_tdofs if sealed_radius else \
            np.concatenate([self.platen_tdofs, self.rim_hdofs, self.rim_adofs])

    @cached_property
    def newton_order(self):
        """The :class:`NodalOrder` of the Newton matrix: a 3x3 block for
        each pair of nodes that share an element, and the nodes in the
        mesh's nested-dissection order.  Built at the first linear solve,
        once per system."""
        return NodalOrder(self.mesh.elements, self.mesh.n_nodes,
                          self.mesh.dissection_order())

    # -- constraint values ---------------------------------------------------

    def rim_moisture_bc(self, t_node):
        """Moisture in equilibrium with the exterior air at rim temperature."""
        hr = np.clip(100.0 * self.p_v_atm / props.saturated_vapor_pressure(t_node),
                     0.0, 100.0)
        return self.params.isotherm.emc(t_node, hr)

    def rim_air_bc(self, t_node):
        """Air density holding the exterior air partial pressure at rim T."""
        return self.p_a_atm * MM_AIR / (
            R_GAS * (np.asarray(t_node, dtype=float) + KELVIN))

    def constraint_targets(self, u, t):
        """Values the Dirichlet rows hold at time t, in the order of
        ``constrained_dofs``.  A target may depend on the temperature of
        its own node only (``constraint_slopes`` relies on it)."""
        parts = [np.full(len(self.platen_tdofs), self.platen_temperature(t))]
        if not self.sealed_radius:
            t_rim = u[self.rim_tdofs]
            parts += [self.rim_moisture_bc(t_rim), self.rim_air_bc(t_rim)]
        return np.concatenate(parts)

    def constraint_slopes(self, u, t):
        """Derivative of ``constraint_targets`` with respect to the
        temperature of the constrained dof's own node, shape (n_dofs,) and
        zero on free rows: one centered difference, every node's
        temperature stepped at once by ``fd_step``."""
        dofs = self.constrained_dofs
        step = np.zeros_like(u)
        step[IDX_T::N_VARS] = fd_step(u)[IDX_T::N_VARS]
        slopes = np.zeros(self.n_dofs)
        slopes[dofs] = (self.constraint_targets(u + step, t)
                        - self.constraint_targets(u - step, t)) \
            / (2.0 * step[dofs - dofs % N_VARS + IDX_T])
        return slopes

    def apply_dirichlet(self, u, t):
        """Overwrite constrained dofs with their target values (in place).

        Used by the explicit scheme, which integrates only the free rows.
        Assigned twice: a rim target follows its node's temperature, which
        the first pass sets where the rim meets the platen.
        """
        dofs = self.constrained_dofs
        for _ in range(2):
            u[dofs] = self.constraint_targets(u, t)
        return u

    # -- element-level evaluation ---------------------------------------------

    def _gather(self, u):
        """Element-local copies of the state, shape (n_el, 4, 3)."""
        return np.take(u.reshape(-1, N_VARS), self.mesh.elements, axis=0)

    def _assemble(self, blocks):
        """Sum element-corner blocks (n_el, 4, k) into nodal rows
        (n_nodes, k); with k = 3 the rows ravel to the interleaved dofs."""
        k = blocks.shape[-1]
        slots = (k * self.mesh.elements[..., None] + np.arange(k)).ravel()
        return np.bincount(slots, weights=blocks.ravel(),
                           minlength=k * self.mesh.n_nodes).reshape(-1, k)

    def _at_gauss(self, corners):
        """Nodal columns gathered to the element corners (n_el, 4, N_NODAL)
        at the quadrature points: the values (n_el, n_gp, MOB_Z + 1) and
        (d/dr, d/dz) (n_el, n_gp, 2, RHO_A + 1) of the leading columns, and
        the Darcy gas velocity (n_el, n_gp, 2)."""
        val = self.shape @ corners[..., :MOB_Z + 1]
        grad = (self.grad_gauss @ corners[..., :RHO_A + 1]).reshape(
            len(corners), -1, 2, RHO_A + 1)
        return val, grad, darcy_velocity(grad[..., P_TOTAL], val[..., MOB_XY],
                                         val[..., MOB_Z])

    def nodal_state(self, u):
        """Constitutive state of every node of ``u``, a float array
        (n_nodes, N_NODAL) with the columns P_TOTAL ... P_VAPOR: the one
        place the material laws are evaluated.  ``[mesh.elements]``
        gathers its rows to the element corners, shape (n_el, 4,
        N_NODAL)."""
        return derive_thermo(*state_fields(u), self.params)

    def element_residual(self, due, t, corners):
        """Scaled element residual rows, shape (n_el, 4, 3).

        ``corners`` is the nodal state gathered to the element corners,
        which holds T and rho_a, and ``due`` the element-local rates, or
        None for the spatial part alone; summing the returned blocks over
        elements yields the unconstrained global residual.  The spatial
        part is the weak form of the module docstring; its terms are
        whole (n_el, n_gp) arrays, since numpy is slow on operations that
        broadcast over a trailing axis of length 2 or 3.
        """
        p = self.params
        val, grad, vel = self._at_gauss(corners)
        eps_d = self.epsilon * val[..., DIFFUSIVITY]
        heat_adv = val[..., RHO_V] * CP_VAPOR                 # rho_v cp_vapor
        tau = self._supg_tau(vel, val[..., KAPPA_XY:KAPPA_Z + 1], eps_d, heat_adv)

        # dN_a pairs with F and, through the streamline test function
        # tau V . grad N_a, with tau c V: ``f`` is F + tau c V at the
        # quadrature points, built from (n_el, n_gp) arrays
        v_r, v_z = vel[..., 0], vel[..., 1]
        f = np.empty(grad.shape[:2] + (2, N_VARS))
        # energy: conduction; the gas convects the vapor's sensible heat,
        # c_T = rho_v cp_vapor V . grad T
        g_r, g_z = grad[..., 0, TEMP], grad[..., 1, TEMP]
        c_t = heat_adv * (v_r * g_r + v_z * g_z)
        w = tau[..., IDX_T] * c_t
        f[..., 0, IDX_T] = val[..., KAPPA_XY] * g_r + w * v_r
        f[..., 1, IDX_T] = val[..., KAPPA_Z] * g_z + w * v_z
        # moisture and air: interdiffusion less the convection of rho_v,
        # rho_a, c = V . grad(rho_v, rho_a)
        for i, col in ((IDX_H, RHO_V), (IDX_A, RHO_A)):
            g_r, g_z = grad[..., 0, col], grad[..., 1, col]
            w = tau[..., i] * (v_r * g_r + v_z * g_z) - val[..., col]
            f[..., 0, i] = eps_d * g_r + w * v_r
            f[..., 1, i] = eps_d * g_z + w * v_z
        re = self.grad_test @ f.reshape(len(corners), -1, N_VARS)
        # N_a pairs with S = c_T
        re[:, :, IDX_T] += (self.n_test @ c_t[..., None])[..., 0]

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
        m = self.mass @ corners[..., CP:HEAT + 1]
        m_t = m[..., 0] * p.rho_s
        s_lat = m[..., 1]
        c_tt = m_t + s_lat * self.epsilon * corners[..., RV_T]
        c_th = s_lat * (self.epsilon * corners[..., RV_H] - p.rho_s / 100.0)
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
        s_r, s_z = vel[..., 0] / v_mag, vel[..., 1] / v_mag
        # streamline element length h = 2 / sum_a |s . grad N_a|
        denom = np.abs(s_r * self.grad_n[0] + s_z * self.grad_n[1]).sum(axis=0)
        h_s = np.where(denom > 1e-12, 2.0 / np.maximum(denom, 1e-12),
                       self.h_fallback[:, None])
        kappa_dir = kappa[..., 0] * s_r**2 + kappa[..., 1] * s_z**2
        tau = np.empty(v_mag.shape + (N_VARS,))
        tau[..., IDX_T] = heat_adv * tau_supg(
            heat_adv * v_mag, h_s, np.maximum(kappa_dir, 1e-12))
        tau[..., IDX_H:] = tau_supg(v_mag, h_s, np.maximum(eps_d, 1e-30))[..., None]
        return tau

    # -- global residual -----------------------------------------------------

    def residual(self, u, dudt, t, constrained=True):
        """Global residual; rows of constrained dofs replaced when asked."""
        due = None if dudt is None else self._gather(dudt)
        corners = self.nodal_state(u)[self.mesh.elements]
        r = self._assemble(self.element_residual(due, t, corners)).ravel()
        if constrained:
            dofs = self.constrained_dofs
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
        re = self.element_residual(None, t, corners)
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
            h_slope = self.constraint_slopes(u, t)[self.rim_hdofs]
            d_t[rim] = -r_t[rim] / (m_tt[rim] + c_th[rim] * h_slope)

        rates = pack_state(d_t, d_h, d_a)
        rates[self.constrained_dofs] = 0.0
        return rates

    # -- diagnostics ---------------------------------------------------------

    def recover_velocity(self, state):
        """Nodal Darcy gas velocity (n_nodes, 2) [m/s] of the nodal state
        ``state`` (from ``nodal_state``).

        The element pressure gradient is piecewise-discontinuous; nodal
        values are the volume-weighted average of the quadrature-point
        velocities (standard lumped L2 recovery).
        """
        vel = self._at_gauss(state[self.mesh.elements])[2]
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
        rim_influx = float(np.sum(raw[self.rim_hdofs]) / self.row_scale[IDX_H])
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
        kappa = np.maximum(s[:, KAPPA_XY], s[:, KAPPA_Z])
        alpha = max(float(np.max(kappa / (self.params.rho_s * s[:, CP]))),
                    float(np.max(s[:, DIFFUSIVITY])))
        coords = self.mesh.nodes[self.mesh.elements]
        h_min = min(
            float(np.min(np.linalg.norm(coords[:, 1] - coords[:, 0], axis=1))),
            float(np.min(np.linalg.norm(coords[:, 3] - coords[:, 0], axis=1))),
        )
        return 0.25 * h_min**2 / alpha
