"""Time integration and nonlinear solution of the assembled system.

Implicit (backward Euler) stepping solves

    G(v) = M(v) (v - u_n)/dt + R_spatial(v, t_{n+1}) = 0

by Newton iteration with a finite-difference Jacobian spliced from four
nodal constitutive states: twelve perturbed element-residual evaluations
(one per local dof) plus the base, scattered into one sparse matrix.  At
dt = inf the rate (v - u_n)/dt and its perturbation vanish, so the same
Newton loop solves the steady problem ``R_spatial(v) = 0``.

Each Newton matrix J is left-scaled by the inverse of its 3x3 nodal
diagonal blocks D (one batched inverse), which makes its diagonal 1, and
``P D^-1 J P^T`` is factored by SuperLU in the nested-dissection order P
of ``Mesh.dissection_order`` with the pivot threshold ``PIVOT_THRESH``.
Unscaled, the Jacobian has diagonal entries down to 2e-7 of their
column's largest, and SuperLU's partial pivoting leaves any
fill-reducing order; scaled, it keeps this one, and the LU fill of a
60 x 60 mesh is 1.6M entries against 4.0M with COLAMD on J.  The solution
is refined against the unscaled J.

The explicit scheme advances the closed-form lumped rates and then
re-assigns the constrained values.  Both schemes integrate the same
semi-discrete system, so their trajectories agree to second order in dt.

:class:`SolverConfig` is the one solver configuration: ``run_transient``,
``implicit_step`` and ``newton_solve`` read their step, horizon, scheme,
output and Newton controls from it.  The knobs that have a single value
in every run are module constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.linalg import splu

from .assembly import N_VARS, NodalOrder, fd_step, validate_state
from .errors import HotPressError, LinearSolveError, NewtonError, \
    ScenarioError

# dt halvings of a failed implicit step before the run gives up
MAX_HALVINGS = 5
# iterative refinement of each linear solve: stop below this relative
# residual, or after this many back-substitutions
REFINE_TOL = 1e-12
MAX_REFINE = 5
# SuperLU's diagonal pivot threshold: the diagonal of each scaled Newton
# matrix is 1, and a pivot at least this fraction of its column's largest
# entry keeps the nested-dissection order (see linear_solve)
PIVOT_THRESH = 0.01
# accepted states may undershoot zero air density by this much [kg/m3];
# bounds the dip of the under-resolved rim layer without letting a
# diverging run through (see validate_state)
AIR_UNDERSHOOT_TOL = 0.05


@dataclass(frozen=True)
class SolverConfig:
    """Time integration and Newton controls for one run.

    These are numerical knobs, not physics, so defaults are allowed.
    ``t_end = 0`` is accepted and means "evaluate the initial state
    only" (no steps are taken).

    Parameters
    ----------
    dt : float
        Time step [s].
    scheme : {"implicit", "explicit"}
        Backward or forward Euler.
    t_end : float
        Final time [s].
    output_times : tuple of float
        Times [s] at which full-field snapshots are recorded; sorted and
        deduplicated on construction.
    newton_tol_rel, newton_tol_abs : float
        Convergence targets on the root-mean-square of the scaled
        residual: a Newton solve stops below ``max(newton_tol_rel *
        initial, newton_tol_abs)``.  The absolute floor is what makes the
        per-step water balance close tightly on quasi-steady steps where
        the relative criterion alone would stop early.
    newton_max_iter : int
        Iteration cap per implicit step before the step size is halved.
    fd_epsilon_rel : float
        Relative perturbation for the finite-difference Jacobian.
    store_all : bool
        Keep every accepted state in memory (needed for trajectory
        diagnostics; off by default to bound memory).
    """

    dt: float = 1.0                # s
    scheme: str = "implicit"
    t_end: float = 400.0           # s
    output_times: tuple = ()
    newton_tol_rel: float = 1e-10
    newton_tol_abs: float = 5e-14
    newton_max_iter: int = 15
    fd_epsilon_rel: float = 1e-7
    store_all: bool = False

    def __post_init__(self):
        if not (np.isfinite(self.dt) and self.dt > 0.0):
            raise ScenarioError("dt must be a positive number")
        if self.scheme not in ("implicit", "explicit"):
            raise ScenarioError(
                f"scheme must be 'implicit' or 'explicit', got {self.scheme!r}")
        if not (np.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ScenarioError("t_end must be non-negative")
        for name in ("newton_tol_rel", "newton_tol_abs", "fd_epsilon_rel"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ScenarioError(f"{name} must lie in (0, 1)")
        n_iter = self.newton_max_iter
        if not (np.isfinite(n_iter) and n_iter >= 1 and int(n_iter) == n_iter):
            raise ScenarioError("newton_max_iter must be a positive integer")
        times = sorted({float(t) for t in self.output_times})
        if any(not np.isfinite(t) or t <= 0.0 for t in times):
            raise ScenarioError("output_times must be positive and finite")
        object.__setattr__(self, "output_times", tuple(times))
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t_end", float(self.t_end))
        object.__setattr__(self, "newton_max_iter", int(self.newton_max_iter))


def rms(v):
    """Root-mean-square norm used for all convergence decisions."""
    return float(np.sqrt(np.mean(np.square(v))))


def fd_jacobian(system, u, t, dt, u_prev, eps_rel=1e-7):
    """Sparse Jacobian of the residual by finite differences spliced from
    four nodal states.

    Differentiates the implicit map ``G(u) = residual(u, (u - u_prev)/dt,
    t)``: each state step ``fd_step`` also steps the rate by delta/dt.  At
    ``dt = inf`` both vanish and this is the Jacobian of the spatial
    residual.  The constitutive state is pointwise, so
    ``system.nodal_state`` is evaluated at ``u`` and at ``u + delta e_c``
    for each variable c, every node stepped at once.  Element column
    (a, c) takes corner a from the stepped state and the others from the
    base, a structured sparse difference (Curtis, Powell & Reid 1974).
    Each constrained row is a unit diagonal minus
    ``system.constraint_slopes``, the centered difference of its target.
    """
    elements = system.mesh.elements
    delta = fd_step(u, eps_rel)
    ue = system._gather(u)
    due = (ue - system._gather(u_prev)) / dt
    de = system._gather(delta)
    rate_pert = 1.0 / dt

    corners = system.nodal_state(u)[elements]
    base = system.element_residual(ue, due, t, corners)
    n_el = ue.shape[0]
    blocks = np.empty((n_el, 4 * N_VARS, 4 * N_VARS))
    for c in range(N_VARS):
        step = np.zeros_like(u)
        step[c::N_VARS] = delta[c::N_VARS]
        stepped = system.nodal_state(u + step)
        for a in range(4):
            spliced = corners.copy()
            spliced[:, a] = stepped[elements[:, a]]
            ue_p = ue.copy()
            ue_p[:, a, c] += de[:, a, c]
            due_p = due.copy()
            due_p[:, a, c] += de[:, a, c] * rate_pert
            pert = system.element_residual(ue_p, due_p, t, spliced)
            blocks[:, :, N_VARS * a + c] = (
                (pert - base).reshape(n_el, 4 * N_VARS) / de[:, a, c, None]
            )

    del corners, spliced, stepped, de  # free them before the assembly's peak
    dofs = system.elem_dofs
    rows = np.repeat(dofs[:, :, None], 4 * N_VARS, axis=2).ravel()
    cols = np.repeat(dofs[:, None, :], 4 * N_VARS, axis=1).ravel()
    data = blocks.ravel().copy()

    constrained = system.constrained_dofs()
    is_constrained = np.zeros(system.n_dofs, dtype=bool)
    is_constrained[constrained] = True
    data[is_constrained[rows]] = 0.0
    c_cols = (constrained - constrained % N_VARS)[:, None] + np.arange(N_VARS)
    c_vals = (c_cols == constrained[:, None]) \
        - system.constraint_slopes(u, t, eps_rel)[constrained]
    rows = np.concatenate([rows, np.repeat(constrained, N_VARS)])
    cols = np.concatenate([cols, c_cols.ravel()])
    data = np.concatenate([data, c_vals.ravel()])
    return coo_matrix(
        (data, (rows, cols)), shape=(system.n_dofs, system.n_dofs)
    ).tocsr()


def linear_solve(a, b, order=None):
    """Direct sparse solve of ``a x = b`` in a nodal order, with iterative
    refinement.

    ``a`` is left-scaled by the inverse of its nodal diagonal blocks,
    ``D^-1 a``, so every diagonal entry is 1, and factored as
    ``P D^-1 a P^T`` in the nested-dissection order ``P`` of ``order``
    with no column permutation of its own.  On the unit diagonal a small
    pivot threshold, ``PIVOT_THRESH``, keeps that order; without the
    scaling, diagonal entries down to 2e-7 of their column send SuperLU's
    partial pivoting off any fill-reducing order.  ``x`` is then refined
    against the unscaled ``a`` until the relative linear residual drops
    below ``REFINE_TOL`` (a handful of cheap back-substitutions), so the
    Newton updates are not limited by factorization roundoff.

    Parameters
    ----------
    a : sparse matrix
        CSR, with the pattern of ``order``.
    b : ndarray
    order : NodalOrder, optional
        Pattern, nodal blocks and node order of ``a``, as
        ``PressSystem.newton_order`` gives them.  By default every unknown
        is its own node, in natural order.

    Raises
    ------
    LinearSolveError
        If ``a`` has a non-finite entry or a singular nodal block, or if
        factorization fails or produces non-finite values.
    """
    a = a.tocsr()
    if order is None:
        a.sum_duplicates()
        order = NodalOrder(a.indptr, a.indices, np.arange(a.shape[0]))
    if not np.all(np.isfinite(a.data)):
        raise LinearSolveError("matrix has non-finite entries")
    blocks = order.blocks(a)
    try:
        dinv = np.linalg.inv(blocks[order.diag])
    except np.linalg.LinAlgError as exc:
        raise LinearSolveError(f"singular nodal block: {exc}") from exc
    scaled = order.csc(dinv[order.block_row] @ blocks)
    try:
        lu = splu(scaled, permc_spec="NATURAL", diag_pivot_thresh=PIVOT_THRESH)
    except RuntimeError as exc:
        raise LinearSolveError(f"sparse factorization failed: {exc}") from exc

    def solve(r):
        y = lu.solve((dinv @ r.reshape(len(dinv), -1, 1)).ravel()[order.dofs])
        x = np.empty_like(y)
        x[order.dofs] = y
        return x

    x = solve(b)
    if not np.all(np.isfinite(x)):
        raise LinearSolveError("linear solve produced non-finite values")
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b)
    for _ in range(MAX_REFINE):
        r = b - a @ x
        if float(np.linalg.norm(r)) <= REFINE_TOL * b_norm:
            break
        dx = solve(r)
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


def newton_solve(system, u_prev, dt, t_new, cfg):
    """One backward-Euler solve at fixed dt; ``dt = inf`` solves the
    steady problem.

    Full Newton with one half-step backtrack per iteration when the
    residual norm increases.

    Raises
    ------
    NewtonError
        If the tolerance is not reached within ``cfg.newton_max_iter``.
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
    target = max(cfg.newton_tol_rel * r0, cfg.newton_tol_abs)
    history = [r0]
    if r0 <= target:
        return v, 0, r0
    for it in range(1, cfg.newton_max_iter + 1):
        jac = fd_jacobian(system, v, t_new, dt, u_prev, cfg.fd_epsilon_rel)
        dx = linear_solve(jac, -g, system.newton_order)
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
        f"no convergence in {cfg.newton_max_iter} iterations at "
        f"t={t_new:.6g} (dt={dt:.3g})",
        residual_history=history,
        last_state=v,
    )


def implicit_step(system, u, t, dt, cfg=None):
    """Backward-Euler step with automatic dt halving on failure.

    Returns a StepResult whose ``dt_used`` may be smaller than requested;
    the caller resumes from ``t + dt_used``.  ``cfg`` defaults to
    ``SolverConfig()``.

    Raises
    ------
    NewtonError
        If the step still fails after ``MAX_HALVINGS`` halvings.
    """
    cfg = cfg or SolverConfig()
    dt_try = dt
    last_exc = None
    for halving in range(MAX_HALVINGS + 1):
        try:
            v, iters, r_final = newton_solve(system, u, dt_try, t + dt_try, cfg)
            validate_state(v, a_tol=AIR_UNDERSHOOT_TOL)
            return StepResult(v, dt_try, iters, r_final, halving)
        except HotPressError as exc:
            last_exc = exc
            dt_try *= 0.5
    raise NewtonError(
        f"step at t={t:.6g} failed after {MAX_HALVINGS} dt halvings "
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


def run_transient(system, u0, cfg, log=None):
    """Integrate from t=0 to ``cfg.t_end`` with fixed nominal step
    ``cfg.dt`` and scheme ``cfg.scheme``.

    Output times of ``cfg.output_times`` up to ``t_end`` are hit exactly
    (the step shortens when one is closer than dt).  ``t_end = 0``
    returns just the initial state.  ``cfg.store_all`` keeps every
    accepted step.  Each accepted step emits one diagnostic log line;
    pass ``log`` as a callable to stream them.  Implicit runs record the
    per-step lumped-water balance.

    Returns
    -------
    TransientResult
    """
    started = time.perf_counter()
    res = TransientResult()

    def emit(line):
        res.log.append(line)
        if log is not None:
            log(line)

    u = np.asarray(u0, dtype=float).copy()
    validate_state(u)
    t = 0.0
    t_end, dt = cfg.t_end, cfg.dt
    wanted = [x for x in cfg.output_times if x <= t_end]
    res.times.append(0.0)
    res.states.append(u.copy())

    if cfg.scheme == "explicit":
        advisory = system.stable_dt_advisory(u)
        if dt > advisory:
            emit(f"warning: explicit dt={dt:.3g} exceeds diffusive advisory "
                 f"{advisory:.3g}")

    while t < t_end - _TIME_SNAP:
        dt_step = min(dt, t_end - t)
        if wanted:
            dt_step = min(dt_step, wanted[0] - t)
        u_before = u
        if cfg.scheme == "implicit":
            step = implicit_step(system, u, t, dt_step, cfg)
            u = step.u
            t_new = t + step.dt_used
            res.newton_iters.append(step.newton_iters)
            res.dt_used.append(step.dt_used)
            emit(f"step t={t_new:.6g} dt={step.dt_used:.6g} "
                 f"newton={step.newton_iters} resid={step.residual_norm:.3e}")
            storage, influx = system.water_balance(
                u_before, u, step.dt_used, t_new)
            res.water_balance.append((t_new, storage, influx))
        else:
            u = forward_euler_step(system, u, t, dt_step,
                                   a_tol=AIR_UNDERSHOOT_TOL)
            t_new = t + dt_step
            res.dt_used.append(dt_step)
            emit(f"step t={t_new:.6g} dt={dt_step:.6g} scheme=explicit")
        # snap to the targeted time when within tolerance
        if wanted and abs(t_new - wanted[0]) <= _TIME_SNAP:
            t_new = wanted[0]
        t = t_new
        if cfg.store_all:
            res.times.append(t)
            res.states.append(u.copy())
        if wanted and abs(t - wanted[0]) <= _TIME_SNAP:
            res.outputs[wanted[0]] = u.copy()
            if not cfg.store_all:
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
