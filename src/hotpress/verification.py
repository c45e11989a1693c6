"""Independent verification oracles for the press simulator.

Five suites, shared by the command line (``hotpress verify``) and the
acceptance tests:

* ``mms`` — manufactured solutions: observed spatial and temporal
  convergence orders of the discretization.  The volumetric source that
  makes a chosen analytic state an exact solution is computed from the
  pointwise strong-form fluxes with high-order finite differences — a
  path independent of the element assembly, so agreement is evidence,
  not tautology.
* ``conservation`` — a sealed board must keep its total water; an open
  board must balance storage change against the rim reactions every
  step.
* ``jacobian`` — directional consistency of the assembled sparse
  Jacobian at states sampled along a press trajectory.
* ``supg`` — a steady high-Peclet advection benchmark contrasting the
  plain and stabilized discretizations.
* ``properties`` — golden-value spot checks of the constitutive
  relations.

Every check is reported as a :class:`CheckResult`; a suite returns the
list of its checks.
"""

from dataclasses import dataclass, replace

import numpy as np

from .assembly import (
    N_VARS,
    STATE_SCALE,
    PressSystem,
    derive_thermo,
    pack_state,
    state_fields,
    tau_supg,
    vapor_density_partials,
)
from .mesh import QuadratureRule, build_graded_mesh, element_geometry
from .properties import (
    KELVIN,
    MaterialParams,
    saturated_vapor_pressure,
    specific_heat,
    vapor_density,
    vertical_permeability,
)
from .scenario import humphrey_preset, run_scenario
from .solver import LaggedJacobian, SolverConfig, fd_jacobian, \
    newton_solve

__all__ = [
    "CheckResult",
    "FrozenCoefficientSystem",
    "ManufacturedSystem",
    "SUITE_NAMES",
    "conservation_suite",
    "jacobian_suite",
    "mms_spatial_study",
    "mms_suite",
    "mms_temporal_study",
    "press_trajectory",
    "properties_suite",
    "run_suite",
    "supg_benchmark",
    "supg_suite",
]

# rho_v = 6e-8 * P_sat * HR and P_v = P_sat * HR / 100 share the factor
# P_sat * HR, so the vapor density is exactly proportional to its
# partial pressure:
_RV_PER_PV = 6e-6  # (kg/m3) per (N/m2)


@dataclass
class CheckResult:
    """Outcome of one verification check.

    ``value`` is the measured quantity compared against ``threshold``;
    ``detail`` is a human-readable summary with the numbers inline.
    """

    name: str
    passed: bool
    value: float = float("nan")
    threshold: float = float("nan")
    detail: str = ""

    def line(self):
        """One report line: PASS/FAIL, name, and the measured numbers."""
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


# ---------------------------------------------------------------------------
# verification systems
# ---------------------------------------------------------------------------

class FrozenCoefficientSystem(PressSystem):
    """``system`` with every coefficient evaluated at the state ``u_ref``.

    The residual becomes affine in the state: the transported vapor
    density is linearized about ``u_ref`` and the rim targets are held at
    their ``u_ref`` values.  Used by the exact-linearity and
    single-Newton-step tests.
    """

    def __init__(self, system, u_ref):
        super().__init__(system.mesh, system.params,
                         system.platen_temperature,
                         (system.t_atm, system.hr_atm, system.p_atm),
                         system.sealed_radius)
        self._ref = super().nodal_state(u_ref)
        self._t_ref, self._h_ref, _ = state_fields(np.array(u_ref, dtype=float))
        self._rim_ref = super()._rim_targets(u_ref)

    def nodal_state(self, u):
        t_c, h, _ = state_fields(u)
        s = self._ref.copy()
        s["rho_v"] = s["rho_v"] + s["rv_t"] * (t_c - self._t_ref) \
            + s["rv_h"] * (h - self._h_ref)
        return s

    def _rim_targets(self, u):
        return self._rim_ref


class ManufacturedSystem(PressSystem):
    """Press operator on which a manufactured solution is exact.

    Every boundary dof is pinned to ``solution``, the volumetric source
    that makes ``solution`` satisfy the equations is injected, and the
    streamline stabilization can be switched off.  The rim is sealed and
    the platen schedule unused: the boundary values come from the
    solution.
    """

    def __init__(self, mesh, params, solution, stabilization=True):
        super().__init__(mesh, params, lambda t: 0.0,
                         (30.0, 65.0, 101325.0), sealed_radius=True)
        self.solution = solution
        self.stabilization = stabilization
        nodes = np.unique(np.concatenate(list(mesh.node_tags.values())))
        self.boundary_dofs = (
            N_VARS * nodes[:, None] + np.arange(N_VARS)[None, :]
        ).ravel()
        self._source_t = None
        self._source = None

    def source(self, t):
        """Manufactured source at time t, shape (n_el, n_gp, 3); kept
        until t changes, as every Newton iteration of a step reuses it."""
        if t != self._source_t:
            self._source = manufactured_source(self, self.solution, t)
            self._source_t = t
        return self._source

    def constrained_dofs(self):
        return self.boundary_dofs

    def constraint_targets(self, u, t):
        return self.solution.state(self.mesh, t)[self.boundary_dofs]

    def element_residual(self, ue, due, t, corners):
        re = super().element_residual(ue, due, t, corners)
        return re - (self.n_test @ self.source(t)) * self.row_scale

    def _supg_tau(self, vel, *args):
        if self.stabilization:
            return super()._supg_tau(vel, *args)
        return np.zeros(vel.shape[:2] + (N_VARS,))


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

class _Wave:
    """Scalar field ``a0 + amp cos(k r) (1 - b (z/z_len)^2) s(t)``.

    Even in r (zero radial slope on the axis) and polynomial in z, with
    closed-form space and time derivatives.
    """

    def __init__(self, a0, amp, k_r, b, z_len, s=None, ds=None):
        self.a0, self.amp, self.k_r, self.b = a0, amp, k_r, b
        self.z_len = z_len
        self.s = s if s is not None else (lambda t: 1.0)
        self.ds = ds if ds is not None else (lambda t: 0.0)

    def __call__(self, r, z, t):
        return self.a0 + self.amp * np.cos(self.k_r * r) \
            * (1.0 - self.b * (z / self.z_len) ** 2) * self.s(t)

    def d_r(self, r, z, t):
        return -self.amp * self.k_r * np.sin(self.k_r * r) \
            * (1.0 - self.b * (z / self.z_len) ** 2) * self.s(t)

    def d_z(self, r, z, t):
        return self.amp * np.cos(self.k_r * r) \
            * (-2.0 * self.b * z / self.z_len ** 2) * self.s(t)

    def d_t(self, r, z, t):
        return self.amp * np.cos(self.k_r * r) \
            * (1.0 - self.b * (z / self.z_len) ** 2) * self.ds(t)


@dataclass
class _ManufacturedSolution:
    """Analytic (T, H, rho_a) fields with derivatives."""

    t_field: _Wave
    h_field: _Wave
    a_field: _Wave

    def state(self, mesh, t):
        """Exact nodal state vector at time t."""
        r, z = mesh.nodes[:, 0], mesh.nodes[:, 1]
        return pack_state(self.t_field(r, z, t), self.h_field(r, z, t),
                          self.a_field(r, z, t))


_MMS_R = 0.2828     # m, board radius of the study domain
_MMS_Z = 0.0075     # m, half thickness


def _mms_solution(transient, period=8.0):
    """Smooth manufactured fields kept well inside the physical range."""
    if transient:
        def s(t):
            return 0.5 * (1.0 - np.cos(np.pi * t / period))

        def ds(t):
            return 0.5 * np.pi / period * np.sin(np.pi * t / period)
    else:
        s = ds = None
    k = np.pi / _MMS_R
    return _ManufacturedSolution(
        t_field=_Wave(70.0, 18.0, k, 0.5, _MMS_Z, s, ds),        # degC
        h_field=_Wave(9.5, 1.6, 0.8 * k, 0.4, _MMS_Z, s, ds),    # %
        a_field=_Wave(0.8, 0.22, k, 0.6, _MMS_Z, s, ds),         # kg/m3
    )


# Independent of the assembly's Darcy velocity and flux code on purpose:
# this is the oracle the MMS suite checks the element residual against.
def _pointwise_flux(system, sol, r, z, t):
    """Exact strong-form flux (..., 3, 2) of the three balances and the
    energy advection term rho_v cp_vapor V . grad T (...,).

    The energy flux is conduction alone: the vapor advects only its
    sensible heat, and in advective form, since the latent heat of the
    vapor flux is already charged through the evaporation rate in the
    storage terms.  Uses the analytic field gradients and the chain rule
    through the constitutive maps; no element machinery involved.
    """
    p = system.params
    eps = system.epsilon
    tf, hf, af = sol.t_field, sol.h_field, sol.a_field
    tv, hv, av = tf(r, z, t), hf(r, z, t), af(r, z, t)
    th = derive_thermo(tv, hv, av, p, eps)
    rv_t, rv_h = vapor_density_partials(tv, hv, th.hr, p)

    gt_r, gt_z = tf.d_r(r, z, t), tf.d_z(r, z, t)
    gh_r, gh_z = hf.d_r(r, z, t), hf.d_z(r, z, t)
    ga_r, ga_z = af.d_r(r, z, t), af.d_z(r, z, t)

    grv_r = rv_t * gt_r + rv_h * gh_r
    grv_z = rv_t * gt_z + rv_h * gh_z
    # total pressure gradient: ideal-gas air part plus vapor part
    dpair_dt = av * p.r_gas / p.mm_air
    dpair_da = p.r_gas * (tv + KELVIN) / p.mm_air
    gp_r = dpair_dt * gt_r + dpair_da * ga_r + grv_r / _RV_PER_PV
    gp_z = dpair_dt * gt_z + dpair_da * ga_z + grv_z / _RV_PER_PV

    v_r = -(th.perm_xy / th.viscosity) * gp_r
    v_z = -(th.perm_z / th.viscosity) * gp_z
    eps_d = eps * th.diffusivity

    f = np.empty(np.shape(tv) + (3, 2))
    f[..., 0, 0] = th.kappa_xy * gt_r
    f[..., 0, 1] = th.kappa_z * gt_z
    f[..., 1, 0] = eps_d * grv_r - v_r * th.rho_v
    f[..., 1, 1] = eps_d * grv_z - v_z * th.rho_v
    f[..., 2, 0] = eps_d * ga_r - v_r * av
    f[..., 2, 1] = eps_d * ga_z - v_z * av
    adv_t = th.rho_v * p.cp_vapor * (v_r * gt_r + v_z * gt_z)
    return f, adv_t


def _storage_terms(system, sol, r, z, t):
    """Time-derivative terms of the three balances at points (r, z)."""
    p = system.params
    eps = system.epsilon
    tf, hf, af = sol.t_field, sol.h_field, sol.a_field
    tv, hv = tf(r, z, t), hf(r, z, t)
    th = derive_thermo(tv, hv, af(r, z, t), p, eps)
    rv_t, rv_h = vapor_density_partials(tv, hv, th.hr, p)
    dt_dt = tf.d_t(r, z, t)
    dh_dt = hf.d_t(r, z, t)
    da_dt = af.d_t(r, z, t)
    mdot = eps * (rv_t * dt_dt + rv_h * dh_dt) - (p.rho_s / 100.0) * dh_dt
    out = np.empty(np.shape(tv) + (3,))
    out[..., 0] = p.rho_s * th.cp * dt_dt + (th.latent + th.sorption) * mdot
    out[..., 1] = (p.rho_s / 100.0) * dh_dt
    out[..., 2] = eps * da_dt
    return out


def manufactured_source(system, sol, t, fd_rel=1e-4):
    """Volumetric source (n_el, n_gp, 3) that makes ``sol`` exact.

    g = storage(du*/dt) + advection(u*) - div F(u*), with the
    axisymmetric divergence (dF_r/dr + F_r/r + dF_z/dz) evaluated by
    fourth-order central differences of the pointwise-exact fluxes.
    """
    r = system.gp_xy[..., 0]
    z = system.gp_xy[..., 1]
    hr = fd_rel * float(np.max(r))
    hz = fd_rel * float(np.max(np.abs(z)) or 1.0)

    def fr(rr):
        return _pointwise_flux(system, sol, rr, z, t)[0][..., 0]

    def fz(zz):
        return _pointwise_flux(system, sol, r, zz, t)[0][..., 1]

    dfr = (-fr(r + 2 * hr) + 8.0 * fr(r + hr)
           - 8.0 * fr(r - hr) + fr(r - 2 * hr)) / (12.0 * hr)
    dfz = (-fz(z + 2 * hz) + 8.0 * fz(z + hz)
           - 8.0 * fz(z - hz) + fz(z - 2 * hz)) / (12.0 * hz)
    f0, adv_t = _pointwise_flux(system, sol, r, z, t)
    div = dfr + f0[..., 0] / r[..., None] + dfz
    src = _storage_terms(system, sol, r, z, t) - div
    src[..., 0] += adv_t
    return src


def _mms_system(n, sol, stabilization=True):
    """Uniform n-by-n manufactured-solution system for ``sol``."""
    mesh = build_graded_mesh(_MMS_R, _MMS_Z, n, n, 1.0)
    return ManufacturedSystem(mesh, MaterialParams(rho_s=586.0), sol,
                              stabilization)


def _scaled_error_norm(system, diff):
    """Volume-weighted RMS of a state difference, per-type scaled."""
    w = system.nodal_volume
    e = diff.reshape(-1, N_VARS) / np.asarray(STATE_SCALE)
    return float(np.sqrt(np.sum(w[:, None] * e**2) / (N_VARS * np.sum(w))))


def mms_spatial_study(n_values=(5, 10, 20, 40), stabilization=True):
    """Error of the steady manufactured problem under mesh refinement.

    Returns
    -------
    errors : list of float
        Scaled volume-weighted RMS error versus the exact solution.
    orders : list of float
        log2 error ratio of each consecutive mesh pair.
    """
    sol = _mms_solution(transient=False)
    errors = []
    for n in n_values:
        system = _mms_system(n, sol, stabilization)
        u_exact = sol.state(system.mesh, 0.0)
        # backward Euler at dt = inf is the steady problem
        u, _, _ = newton_solve(system, u_exact, np.inf, 0.0, SolverConfig())
        errors.append(_scaled_error_norm(system, u - u_exact))
    orders = [float(np.log2(errors[i] / errors[i + 1]))
              for i in range(len(errors) - 1)]
    return errors, orders


def mms_temporal_study(dts=(1.0, 0.5, 0.25, 0.125, 0.0625), n=8, t_final=8.0):
    """Temporal order of the implicit scheme on a transient manufactured
    problem, from successive solution differences on one fixed mesh
    (the spatial error cancels in each difference).

    Returns
    -------
    diffs : list of float
        Scaled norm of u(dt_i) - u(dt_{i+1}) at t_final.
    orders : list of float
        log2 ratio of consecutive differences.
    """
    sol = _mms_solution(transient=True, period=t_final)
    system = _mms_system(n, sol)
    cfg = SolverConfig()
    finals = []
    for dt in dts:
        steps = int(round(t_final / dt))
        u = sol.state(system.mesh, 0.0)
        lagged = LaggedJacobian()
        for k in range(steps):
            u, _, _ = newton_solve(system, u, dt, (k + 1) * dt, cfg, lagged)
        finals.append(u)
    diffs = [_scaled_error_norm(system, finals[i] - finals[i + 1])
             for i in range(len(finals) - 1)]
    orders = [float(np.log2(diffs[i] / diffs[i + 1]))
              for i in range(len(diffs) - 1)]
    return diffs, orders


def mms_suite():
    """Spatial and temporal convergence checks (manufactured solutions)."""
    checks = []

    # The spatial study runs the plain Galerkin discretization: the
    # streamline stabilization keeps conservation exact by using the
    # convective part of the strong residual only, which is first-order
    # consistent and would mask the element order here.  Its own
    # benchmark (the supg suite) verifies what it is for.
    n_vals = (5, 10, 20, 40)
    errors, orders = mms_spatial_study(n_vals, stabilization=False)
    slope = float(np.polyfit(np.log2(n_vals), np.log2(errors), 1)[0])
    observed = -slope
    ok = 1.7 <= observed <= 2.3
    pairs = ", ".join(f"{o:.2f}" for o in orders)
    checks.append(CheckResult(
        "mms spatial order", ok, value=observed, threshold=2.0,
        detail=f"observed order {observed:.2f} (pairwise {pairs}; "
               f"expected 2 +/- 0.3)"))

    diffs, orders_t = mms_temporal_study()
    observed_t = float(np.mean(orders_t))
    ok_t = 0.8 <= observed_t <= 1.2
    pairs_t = ", ".join(f"{o:.2f}" for o in orders_t)
    checks.append(CheckResult(
        "mms temporal order", ok_t, value=observed_t, threshold=1.0,
        detail=f"observed order {observed_t:.2f} (pairwise {pairs_t}; "
               f"expected 1 +/- 0.2)"))
    return checks


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------

def conservation_suite(scenario=None, open_run=None,
                       sealed_tol=1e-6, open_tol=1e-8):
    """Sealed total-water drift and open per-step balance.

    Parameters
    ----------
    scenario : Scenario, optional
        Base case; the built-in preset when omitted.
    open_run : (PressSystem, TransientResult), optional
        Reuse an existing open-rim run instead of integrating again.
    """
    sc = scenario if scenario is not None else humphrey_preset()

    sealed_sc = replace(sc, sealed_radius=True,
                        solver=replace(sc.solver, store_all=True,
                                       output_times=()))
    system_s, res_s = run_scenario(sealed_sc)
    water = np.array([system_s.lumped_water(s) for s in res_s.states])
    drift = float(np.max(np.abs(water - water[0])) / water[0])
    n_steps = len(res_s.dt_used)
    checks = [CheckResult(
        "sealed water conservation", drift <= sealed_tol,
        value=drift, threshold=sealed_tol,
        detail=f"max relative drift {drift:.2e} over {n_steps} steps "
               f"(tol {sealed_tol:g})")]

    if open_run is None:
        open_run = run_scenario(replace(
            sc, solver=replace(sc.solver, output_times=())))
    system_o, res_o = open_run
    w0 = system_o.lumped_water(res_o.states[0])
    worst = 0.0
    for (t_new, storage, influx), dt in zip(res_o.water_balance,
                                            res_o.dt_used):
        worst = max(worst, abs(storage - influx) * dt / w0)
    checks.append(CheckResult(
        "open water balance", worst <= open_tol,
        value=worst, threshold=open_tol,
        detail=f"max per-step imbalance {worst:.2e} of total water over "
               f"{len(res_o.water_balance)} steps (tol {open_tol:g})"))
    return checks


# ---------------------------------------------------------------------------
# jacobian consistency
# ---------------------------------------------------------------------------

def press_trajectory(t_end=40.0, dt=1.0):
    """Short segment of the press run with every accepted state stored."""
    sc = humphrey_preset()
    sc = replace(sc, solver=replace(sc.solver, t_end=t_end, dt=dt,
                                    store_all=True, output_times=()))
    return run_scenario(sc)


def jacobian_suite(trajectory=None, n_checks=10, seed=20260823, tol=1e-5):
    """Directional-derivative consistency of the sparse Jacobian.

    Samples random stored states from a press trajectory, builds the
    finite-difference Jacobian there, and compares J @ w against a
    central difference of the residual along a random direction w.
    """
    if trajectory is None:
        trajectory = press_trajectory()
    system, result = trajectory
    times, states = result.times, result.states
    if len(states) < 2:
        raise ValueError("trajectory must contain at least one step")
    rng = np.random.default_rng(seed)
    scale = np.tile(STATE_SCALE, system.mesh.n_nodes)
    worst = 0.0
    for i in rng.integers(1, len(states), size=n_checks):
        u, u_prev = states[i], states[i - 1]
        t_i = times[i]
        dt_i = times[i] - times[i - 1]
        jac = fd_jacobian(system, u, t_i, dt=dt_i, u_prev=u_prev)
        w = rng.standard_normal(u.size) * scale
        s = 1e-6
        gp = system.residual(u + s * w, (u + s * w - u_prev) / dt_i, t_i)
        gm = system.residual(u - s * w, (u - s * w - u_prev) / dt_i, t_i)
        fd = (gp - gm) / (2.0 * s)
        err = float(np.linalg.norm(jac @ w - fd) / np.linalg.norm(fd))
        worst = max(worst, err)
    return [CheckResult(
        "jacobian directional consistency", worst < tol,
        value=worst, threshold=tol,
        detail=f"max relative error {worst:.2e} at {n_checks} sampled "
               f"states (tol {tol:g})")]


# ---------------------------------------------------------------------------
# supg benchmark
# ---------------------------------------------------------------------------

def supg_benchmark(n=20, peclet=50.0):
    """Steady 1-D advection-diffusion at element Peclet ``peclet``.

    Discretized with the same bilinear elements and quadrature on a
    one-element-high strip, advected left to right with unit speed and
    pinned to u=0 at the inlet and u=1 at the outlet.

    Returns
    -------
    (galerkin_profile, supg_profile) : nodal values along the strip.
    """
    length = 1.0
    mesh = build_graded_mesh(length, 0.05, n, 1, 1.0)
    rule = QuadratureRule.gauss(2)
    shape, grad, detj, _ = element_geometry(mesh.nodes[mesh.elements], rule)
    w = rule.weights[None, :] * detj    # plain 2-D measure (no axis weight)
    h = length / n
    speed = 1.0
    kappa = speed * h / (2.0 * peclet)
    inlet = mesh.structured_line(ir=0)
    outlet = mesh.structured_line(ir=n)

    def solve(stabilized):
        tau = float(tau_supg(speed, h, kappa)) if stabilized else 0.0
        ke = np.einsum("eg,egad,egbd->eab", w * kappa, grad, grad)
        ke += speed * np.einsum("eg,ga,egb->eab", w, shape, grad[..., 0])
        if tau:
            ke += tau * speed**2 * np.einsum(
                "eg,ega,egb->eab", w, grad[..., 0], grad[..., 0])
        k = np.zeros((mesh.n_nodes, mesh.n_nodes))
        np.add.at(k, (mesh.elements[:, :, None], mesh.elements[:, None, :]), ke)
        rhs = np.zeros(mesh.n_nodes)
        for nodes, value in ((inlet, 0.0), (outlet, 1.0)):
            k[nodes, :] = 0.0
            k[nodes, nodes] = 1.0
            rhs[nodes] = value
        u = np.linalg.solve(k, rhs)
        return u[mesh.structured_line(iz=0)]

    return solve(False), solve(True)


def _significant_flips(profile, floor=1e-9):
    """Count adjacent sign alternations of the nodal increments,
    ignoring increments below ``floor`` (roundoff flats)."""
    inc = np.diff(profile)
    inc = np.where(np.abs(inc) > floor, inc, 0.0)
    return int(np.sum(inc[:-1] * inc[1:] < 0.0))


def supg_suite(n=20, peclet=50.0):
    """Oscillation/overshoot contrast between Galerkin and SUPG."""
    gal, stab = supg_benchmark(n, peclet)
    flips = _significant_flips(gal)
    ok_gal = flips >= n // 2
    overshoot = float(max(stab.max() - 1.0, -stab.min(), 0.0))
    ok_supg = overshoot < 0.05
    return [
        CheckResult(
            "galerkin oscillates at high Peclet", ok_gal,
            value=float(flips), threshold=float(n // 2),
            detail=f"{flips} sign alternations in {n} nodal increments at "
                   f"element Peclet {peclet:g}"),
        CheckResult(
            "supg overshoot bounded", ok_supg,
            value=overshoot, threshold=0.05,
            detail=f"max overshoot {overshoot:.2%} of the solution range "
                   f"(tol 5%)"),
    ]


# ---------------------------------------------------------------------------
# property goldens
# ---------------------------------------------------------------------------

def properties_suite():
    """Golden-value spot checks of the constitutive relations."""
    checks = []

    psat = saturated_vapor_pressure(100.0)
    rel = abs(psat - 1.017e5) / 1.017e5
    checks.append(CheckResult(
        "saturation pressure at 100 degC", rel <= 0.02,
        value=psat, threshold=0.02,
        detail=f"{psat:.4e} N/m2 vs 1.017e5 (rel dev {rel:.2%}, tol 2%)"))

    rv = vapor_density(psat, 100.0)
    rel = abs(rv - 0.61) / 0.61
    checks.append(CheckResult(
        "saturated vapor density at 100 degC", rel <= 0.05,
        value=rv, threshold=0.05,
        detail=f"{rv:.4f} kg/m3 vs 0.61 (rel dev {rel:.2%}, tol 5%)"))

    params = MaterialParams(rho_s=586.0)
    fit = vertical_permeability(params.perm_density, params)
    rel_max = float(np.max(np.abs(fit - params.perm_values)
                           / params.perm_values))
    checks.append(CheckResult(
        "permeability fit through table", rel_max <= 0.15,
        value=rel_max, threshold=0.15,
        detail=f"max rel dev {rel_max:.2%} at "
               f"{len(params.perm_density)} tabulated densities (tol 15%)"))

    cp = specific_heat(273.15, 0.0)
    dev = abs(cp - 1120.2)
    checks.append(CheckResult(
        "dry specific heat at 0 degC", dev <= 0.1,
        value=cp, threshold=0.1,
        detail=f"{cp:.1f} J/(kg K) vs 1120.2 (dev {dev:.3f}, tol 0.1)"))
    return checks


# ---------------------------------------------------------------------------
# suite registry
# ---------------------------------------------------------------------------

_SUITES = {"mms": mms_suite, "conservation": conservation_suite,
           "jacobian": jacobian_suite, "supg": supg_suite,
           "properties": properties_suite}
SUITE_NAMES = tuple(_SUITES)


def run_suite(name):
    """Run one named verification suite; returns its check list."""
    if name not in _SUITES:
        raise ValueError(
            f"unknown suite {name!r}; valid suites: {', '.join(SUITE_NAMES)}")
    return _SUITES[name]()
