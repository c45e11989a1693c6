"""Time integration and nonlinear solution of the assembled system.

Implicit (backward Euler) stepping solves

    G(v) = M(v) (v - u_n)/dt + R_spatial(v, t_{n+1}) = 0

by Newton iteration with an element-wise finite-difference Jacobian: twelve
perturbed element-residual evaluations (one per local dof) plus the base,
scattered into one sparse matrix.  The explicit scheme advances the
closed-form lumped rates and then re-assigns the constrained values.  Both
schemes integrate the same semi-discrete system, so their trajectories
agree to second order in dt.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .assembly import N_VARS, STATE_SCALE, validate_state
from .errors import HotPressError, LinearSolveError, NewtonError


@dataclass
class NewtonOptions:
    """Tuning knobs of the implicit stepper.

    Convergence uses the root-mean-square of the scaled residual: a step is
    accepted when it falls below ``max(tol_rel * initial, tol_abs)``.  The
    absolute floor is what makes the per-step water balance close tightly
    on quasi-steady steps where the relative criterion alone would stop
    early.
    """

    tol_rel: float = 1e-10
    tol_abs: float = 5e-14
    max_iter: int = 15
    fd_epsilon_rel: float = 1e-7
    max_halvings: int = 5
    refine_tol: float = 1e-12
    # accepted states may undershoot zero air density by this much
    # [kg/m3]; bounds the dip of the under-resolved rim layer without
    # letting a diverging run through (see validate_state)
    air_undershoot_tol: float = 0.05


def rms(v):
    """Root-mean-square norm used for all convergence decisions."""
    return float(np.sqrt(np.mean(np.square(v))))


def fd_jacobian(system, u, t, dt=None, u_prev=None, eps_rel=1e-7):
    """Sparse Jacobian of the residual by element-wise finite differences.

    With ``dt``/``u_prev`` given, differentiates the implicit map
    ``G(u) = residual(u, (u - u_prev)/dt, t)`` (each state perturbation
    also perturbs the rate by delta/dt); otherwise differentiates the
    spatial residual alone.

    Perturbation sizes are relative to each unknown with per-type floors,
    so the columns are well-scaled for temperatures around 1e2 and air
    densities around 1e-1.

    Returns
    -------
    scipy.sparse.csr_matrix
        Constrained rows replaced: unit diagonal plus the sensitivity of
        state-dependent boundary targets to the local temperature.
    """
    ue = system._gather(u)
    if dt is None:
        due = None
        rate_pert = 0.0
    else:
        due = (ue - system._gather(u_prev)) / dt
        rate_pert = 1.0 / dt

    base = system.element_residual(ue, due, t)
    n_el = ue.shape[0]
    blocks = np.empty((n_el, 4 * N_VARS, 4 * N_VARS))
    for local in range(4 * N_VARS):
        a, c = divmod(local, N_VARS)
        delta = eps_rel * np.maximum(np.abs(ue[:, a, c]), STATE_SCALE[c])
        ue_p = ue.copy()
        ue_p[:, a, c] += delta
        if due is None:
            due_p = None
        else:
            due_p = due.copy()
            due_p[:, a, c] += delta * rate_pert
        pert = system.element_residual(ue_p, due_p, t)
        blocks[:, :, local] = (
            (pert - base).reshape(n_el, 4 * N_VARS) / delta[:, None]
        )

    dofs = system.elem_dofs
    rows = np.repeat(dofs[:, :, None], 4 * N_VARS, axis=2).ravel()
    cols = np.repeat(dofs[:, None, :], 4 * N_VARS, axis=1).ravel()
    data = blocks.ravel().copy()

    constrained = np.zeros(system.n_dofs, dtype=bool)
    constrained[system.constrained_dofs()] = True
    data[constrained[rows]] = 0.0

    c_rows, c_cols, c_vals = system.constraint_jacobian_entries(u, t)
    rows = np.concatenate([rows, c_rows])
    cols = np.concatenate([cols, c_cols])
    data = np.concatenate([data, c_vals])
    return coo_matrix(
        (data, (rows, cols)), shape=(system.n_dofs, system.n_dofs)
    ).tocsr()


def linear_solve(a, b, refine_tol=1e-12, max_refine=5):
    """Direct sparse solve with iterative refinement.

    Refines ``x`` until the relative linear residual drops below
    ``refine_tol`` (a handful of cheap back-substitutions), so the Newton
    updates are not limited by factorization roundoff.

    Raises
    ------
    LinearSolveError
        If factorization fails or produces non-finite values.
    """
    try:
        lu = splu(a.tocsc())
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc
    x = lu.solve(b)
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("linear solve produced non-finite values")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    for _ in range(max_refine):
        r = b - a @ x
        if float(np.linalg.norm(r)) <= refine_tol * b_norm:
            break
        dx = lu.solve(r)
        if not np.all(np.isfinite(dx)):
            break
        x = x + dx
    return x


@dataclass
class StepResult:
    u: np.ndarray
    dt_used: float
    newton_iters: int
    residual_norm: float
    halvings: int = 0


def newton_solve(system, u_prev, dt, t_new, opts):
    """One backward-Euler solve at fixed dt.

    Full Newton with one half-step backtrack per iteration when the
    residual norm increases.

    Raises
    ------
    NewtonError
        If the tolerance is not reached within ``opts.max_iter``.
    """
    def eval_residual(w):
        """Residual and norm, or None when the state leaves the domain."""
        try:
            g = system.residual(w, (w - u_prev) / dt, t_new)
        except HotPressError:
            return None, np.inf
        r = rms(g)
        return (g, r) if np.isfinite(r) else (None, np.inf)

    v = u_prev.copy()
    g, r0 = eval_residual(v)
    if g is None:
        raise NewtonError(f"residual not evaluable at t={t_new:.6g}")
    target = max(opts.tol_rel * r0, opts.tol_abs)
    history = [r0]
    if r0 <= target:
        return v, 0, r0
    for it in range(1, opts.max_iter + 1):
        jac = fd_jacobian(system, v, t_new, dt=dt, u_prev=u_prev,
                          eps_rel=opts.fd_epsilon_rel)
        dx = linear_solve(jac, -g, refine_tol=opts.refine_tol)
        v_new = v + dx
        g_new, r_new = eval_residual(v_new)
        if r_new > history[-1]:
            v_half = v + 0.5 * dx
            g_half, r_half = eval_residual(v_half)
            if r_half < r_new:
                v_new, g_new, r_new = v_half, g_half, r_half
        if g_new is None:
            raise NewtonError(
                f"iterate left the physical domain at t={t_new:.6g} "
                f"(dt={dt:.3g})",
                residual_history=history, last_state=v,
            )
        v, g = v_new, g_new
        history.append(r_new)
        if r_new <= target:
            return v, it, r_new
    raise NewtonError(
        f"no convergence in {opts.max_iter} iterations at t={t_new:.6g} "
        f"(dt={dt:.3g})",
        residual_history=history,
        last_state=v,
    )


def implicit_step(system, u, t, dt, opts=None):
    """Backward-Euler step with automatic dt halving on failure.

    Returns a StepResult whose ``dt_used`` may be smaller than requested;
    the caller resumes from ``t + dt_used``.

    Raises
    ------
    NewtonError
        If the step still fails after ``opts.max_halvings`` halvings.
    """
    opts = opts or NewtonOptions()
    dt_try = dt
    last_exc = None
    for halving in range(opts.max_halvings + 1):
        try:
            v, iters, r_final = newton_solve(system, u, dt_try, t + dt_try, opts)
            validate_state(v, a_tol=opts.air_undershoot_tol)
            return StepResult(v, dt_try, iters, r_final, halving)
        except HotPressError as exc:
            last_exc = exc
            dt_try *= 0.5
    raise NewtonError(
        f"step at t={t:.6g} failed after {opts.max_halvings} dt halvings "
        f"(last dt={dt_try * 2:.3g}): {last_exc}"
    )


def euler_update(u, rate, dt):
    """The forward-Euler update rule itself: u + dt * du/dt."""
    return u + dt * rate


def forward_euler_step(system, u, t, dt, a_tol=None):
    """Explicit step on the lumped rates, then re-assign constrained values."""
    u_new = euler_update(u, system.ode_rates(u, t), dt)
    system.apply_dirichlet(u_new, t + dt)
    validate_state(u_new, a_tol=a_tol)
    return u_new


@dataclass
class TransientResult:
    """Everything a run produces.

    ``times``/``states`` hold every accepted step when ``store_all`` was
    set, otherwise only the requested output times.  ``outputs`` maps each
    requested output time to its state in either case.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    newton_iters: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    water_balance: list = field(default_factory=list)  # (t, storage, influx)
    log: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def mean_newton_iters(self):
        return float(np.mean(self.newton_iters)) if self.newton_iters else 0.0


_TIME_SNAP = 1e-9


def run_transient(system, u0, t_end, dt, scheme="implicit", output_times=(),
                  opts=None, store_all=False, track_water=True, log=None):
    """Integrate from t=0 to t_end with fixed nominal step dt.

    Output times are hit exactly (the step shortens when one is closer
    than dt).  ``t_end = 0`` returns just the initial state.  Each accepted
    step emits one diagnostic log line; pass ``log`` as a callable to
    stream them.

    Parameters
    ----------
    scheme : {"implicit", "explicit"}
    output_times : iterable of float
        Snapshot times; clipped to [0, t_end].
    store_all : bool
        Keep every accepted step (diagnostics, conservation checks).
    track_water : bool
        Record the per-step lumped-water balance (open systems).

    Returns
    -------
    TransientResult
    """
    if scheme not in ("implicit", "explicit"):
        raise ValueError(f"unknown scheme {scheme!r}")
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    opts = opts or NewtonOptions()
    started = time.perf_counter()
    res = TransientResult()

    def emit(line):
        res.log.append(line)
        if log is not None:
            log(line)

    u = np.asarray(u0, dtype=float).copy()
    validate_state(u)
    t = 0.0
    wanted = sorted(set(float(x) for x in output_times if 0.0 <= x <= t_end))
    res.times.append(0.0)
    res.states.append(u.copy())
    if wanted and abs(wanted[0]) <= _TIME_SNAP:
        res.outputs[wanted[0]] = u.copy()
        wanted = wanted[1:]

    if scheme == "explicit":
        advisory = system.stable_dt_advisory(u)
        if dt > advisory:
            emit(f"warning: explicit dt={dt:.3g} exceeds diffusive advisory "
                 f"{advisory:.3g}")

    while t < t_end - _TIME_SNAP:
        dt_step = min(dt, t_end - t)
        if wanted:
            dt_step = min(dt_step, wanted[0] - t)
        u_before = u
        if scheme == "implicit":
            step = implicit_step(system, u, t, dt_step, opts)
            u = step.u
            t_new = t + step.dt_used
            res.newton_iters.append(step.newton_iters)
            res.dt_used.append(step.dt_used)
            emit(f"step t={t_new:.6g} dt={step.dt_used:.6g} "
                 f"newton={step.newton_iters} resid={step.residual_norm:.3e}")
            if track_water:
                storage, influx = system.water_balance(
                    u_before, u, step.dt_used, t_new)
                res.water_balance.append((t_new, storage, influx))
        else:
            u = forward_euler_step(system, u, t, dt_step,
                                   a_tol=opts.air_undershoot_tol)
            t_new = t + dt_step
            res.dt_used.append(dt_step)
            emit(f"step t={t_new:.6g} dt={dt_step:.6g} scheme=explicit")
        # snap to the targeted time when within tolerance
        if wanted and abs(t_new - wanted[0]) <= _TIME_SNAP:
            t_new = wanted[0]
        t = t_new
        if store_all:
            res.times.append(t)
            res.states.append(u.copy())
        if wanted and abs(t - wanted[0]) <= _TIME_SNAP:
            res.outputs[wanted[0]] = u.copy()
            if not store_all:
                res.times.append(t)
                res.states.append(u.copy())
            wanted = wanted[1:]

    # the stored trajectory always ends with the final state, whether or
    # not t_end coincides with an output time
    if abs(res.times[-1] - t) > _TIME_SNAP:
        res.times.append(t)
        res.states.append(u.copy())
    res.wall_time = time.perf_counter() - started
    emit(f"done t={t:.6g} steps={len(res.dt_used)} "
         f"wall={res.wall_time:.2f}s")
    return res
