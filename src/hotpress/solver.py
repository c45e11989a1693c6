"""Time integration and nonlinear solution of the assembled system.

Implicit (backward Euler) stepping solves

    G(v) = M(v) (v - u_n)/dt + R_spatial(v, t_{n+1}) = 0

by Newton iteration with a finite-difference Jacobian spliced from four
nodal constitutive states: twelve perturbed element-residual evaluations
(one per local dof) plus the base, summed straight into the 3x3 nodal
blocks of the Newton matrix, a BSR matrix of fixed pattern.  At dt = inf
the rate (v - u_n)/dt and its perturbation vanish, so the same Newton
loop solves the steady problem ``R_spatial(v) = 0``.

The factored Newton matrix is kept, within a solve and from one step to
the next, while the iterations it serves contract (chord iterations;
Hairer & Wanner 1996, IV.8).  An iteration that cuts the residual norm
less than ``REUSE_CONTRACTION``-fold has the next one build a new
Jacobian; a lagged update that does not lower the residual is dropped
and the Jacobian rebuilt; a factor built for another dt is never used.
The convergence target does not depend on the factor, so a stale one
costs iterations, never accuracy.  The factor lives in a
:class:`LaggedJacobian` that the integrating loop owns.

Each Newton matrix J is left-scaled by the inverse of its 3x3 nodal
diagonal blocks D (one batched inverse), which makes its diagonal 1, and
``P D^-1 J P^T`` is factored by SuperLU in the nested-dissection order P
of ``Mesh.dissection_order`` with the pivot threshold ``PIVOT_THRESH``.
Unscaled, the Jacobian has diagonal entries down to 2e-7 of their
column's largest, and SuperLU's partial pivoting leaves any
fill-reducing order; scaled, it keeps this one, and the LU fill of a
60 x 60 mesh is 1.6M entries against 4.0M with COLAMD on J.  Each
linear solve is one back-substitution (:class:`LUFactor`).

The explicit scheme advances the closed-form lumped rates and then
re-assigns the constrained values.  Both schemes integrate the same
semi-discrete system, so their trajectories agree to second order in dt.

:class:`SolverConfig` is the one run configuration: ``run_transient``
reads its step, horizon, scheme and outputs from it.  The knobs that
have a single value in every run are constants: the Newton stopping
rule is held in class constants of :class:`SolverConfig`, the rest in
module constants.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np
from scipy.sparse import bsr_matrix
from scipy.sparse.linalg import splu

from .assembly import IDX_T, N_VARS, fd_step, validate_state
from .errors import HotPressError, LinearSolveError, NewtonError, \
    ScenarioError, as_float

# dt halvings of a failed implicit step before the run gives up
MAX_HALVINGS = 5
# SuperLU's diagonal pivot threshold: the diagonal of each scaled Newton
# matrix is 1, and a pivot at least this fraction of its column's largest
# entry keeps the nested-dissection order (see LUFactor)
PIVOT_THRESH = 0.01
# a lagged Newton factor is rebuilt after an iteration that cuts the RMS
# residual less than this factor (see newton_solve); at 0.1 the humphrey
# run takes 6.2 iterations per step, and its final iterates land so near
# their targets that the open per-step water balance reaches 7e-9
# against its 1e-8 gate
REUSE_CONTRACTION = 0.03
# accepted states may undershoot zero air density by this much [kg/m3];
# bounds the dip of the under-resolved rim layer without letting a
# diverging run through (see validate_state)
AIR_UNDERSHOOT_TOL = 0.05


@dataclass(frozen=True)
class SolverConfig:
    """Time integration controls for one run, and the Newton stopping
    rule.

    The fields are numerical knobs, not physics, so defaults are allowed.
    ``t_end = 0`` is accepted and means "evaluate the initial state
    only" (no steps are taken).  The Newton stopping rule has one value
    in every run: it is held in class constants, which no scenario sets.
    Every field is checked when built, type included; a bad one raises
    :class:`~hotpress.errors.ScenarioError` starting with its name.
    ``dt``, ``t_end`` and the output times are stored as float, and
    ``scheme`` as str.

    Parameters
    ----------
    dt : float
        Time step [s].
    scheme : {"implicit", "explicit"}
        Backward or forward Euler.
    t_end : float
        Final time [s].
    output_times : tuple of float
        Times [s] at which full-field snapshots are recorded; a tuple or
        list, sorted and deduplicated on construction.

    Attributes
    ----------
    newton_tol_rel, newton_tol_abs : float
        Convergence targets on the root-mean-square of the scaled
        residual: a Newton solve stops below ``max(newton_tol_rel *
        initial, newton_tol_abs)``.  The absolute floor is what makes the
        per-step water balance close tightly on quasi-steady steps where
        the relative criterion alone would stop early.
    newton_max_iter : int
        Iteration cap per implicit step before the step size is halved.
        Every linear solve counts, those with a lagged factor and those
        whose update is dropped included.
    """

    dt: float = 1.0                # s
    scheme: str = "implicit"
    t_end: float = 400.0           # s
    output_times: tuple = ()
    newton_tol_rel: ClassVar[float] = 1e-10
    newton_tol_abs: ClassVar[float] = 5e-14
    newton_max_iter: ClassVar[int] = 15

    def __post_init__(self):
        object.__setattr__(self, "dt", as_float(
            self.dt, "dt", ScenarioError, lambda x: x > 0.0,
            "must be a positive number"))
        if self.scheme not in ("implicit", "explicit"):
            raise ScenarioError(
                f"scheme must be 'implicit' or 'explicit', got {self.scheme!r}")
        object.__setattr__(self, "scheme", str(self.scheme))
        object.__setattr__(self, "t_end", as_float(
            self.t_end, "t_end", ScenarioError, lambda x: x >= 0.0,
            "must be non-negative"))
        if not isinstance(self.output_times, (tuple, list)):
            raise ScenarioError("output_times must be a list of times")
        object.__setattr__(self, "output_times", tuple(sorted({as_float(
            t, "output_times", ScenarioError, lambda x: x > 0.0,
            "must be positive and finite") for t in self.output_times})))


def rms(v):
    """Root-mean-square norm used for all convergence decisions."""
    return float(np.sqrt(np.mean(np.square(v))))


def fd_jacobian(system, u, t, dt, u_prev):
    """Jacobian of the residual by finite differences spliced from four
    nodal states: a BSR matrix of 3x3 nodal blocks in the pattern of
    ``system.newton_order``.

    Differentiates the implicit map ``G(u) = residual(u, (u - u_prev)/dt,
    t)``: each state step ``fd_step`` also steps the rate by delta/dt.  At
    ``dt = inf`` both vanish and this is the Jacobian of the spatial
    residual.  The constitutive state is pointwise, so
    ``system.nodal_state`` is evaluated at ``u`` and at ``u + delta e_c``
    for each variable c, every node stepped at once.  Element column
    (a, c) takes corner a from the stepped state and the others from the
    base, a structured sparse difference (Curtis, Powell & Reid 1974);
    the corner, which holds the state, and the rate are put back from
    saved copies after each.
    The element blocks are summed straight into the 3x3 nodal blocks
    through the order's ``element_slots``.  The rows of the constrained
    unknowns are then zeroed in every nodal block, and each is set to a
    unit diagonal minus ``system.constraint_slopes``, the centered
    difference of its target, in its node's diagonal block, temperature
    column.
    """
    elements = system.mesh.elements
    delta = fd_step(u)
    due = (system._gather(u) - system._gather(u_prev)) / dt
    de = system._gather(delta)
    rate_pert = 1.0 / dt

    corners = system.nodal_state(u)[elements]
    base = system.element_residual(due, t, corners)
    n_el = len(elements)
    blocks = np.empty((n_el, 4 * N_VARS, 4 * N_VARS))
    for c in range(N_VARS):
        step = np.zeros_like(u)
        step[c::N_VARS] = delta[c::N_VARS]
        stepped = system.nodal_state(u + step)
        for a in range(4):
            saved = corners[:, a].copy(), due[:, a, c].copy()
            corners[:, a] = stepped[elements[:, a]]
            due[:, a, c] += de[:, a, c] * rate_pert
            pert = system.element_residual(due, t, corners)
            corners[:, a], due[:, a, c] = saved
            blocks[:, :, N_VARS * a + c] = (
                (pert - base).reshape(n_el, 4 * N_VARS) / de[:, a, c, None]
            )

    order = system.newton_order
    nodal = np.bincount(
        order.element_slots.ravel(), weights=blocks.ravel(),
        minlength=len(order.block_row) * N_VARS**2,
    ).reshape(-1, N_VARS, N_VARS)
    constrained = system.constrained_dofs
    is_constrained = np.zeros(system.n_dofs, dtype=bool)
    is_constrained[constrained] = True
    nodal[is_constrained.reshape(-1, N_VARS)[order.block_row]] = 0.0
    node, var = np.divmod(constrained, N_VARS)
    rows = np.eye(N_VARS)[var]
    rows[:, IDX_T] -= system.constraint_slopes(u, t)[constrained]
    nodal[order.diag[node], var] = rows
    return bsr_matrix((nodal, order.indices, order.indptr), shape=order.shape)


class LUFactor:
    """Direct sparse factor of ``a`` in a nodal order.

    ``a`` is left-scaled by the inverse of its nodal diagonal blocks,
    ``D^-1 a``, so every diagonal entry is 1, and factored as
    ``P D^-1 a P^T`` in the nested-dissection order ``P`` of ``order``
    with no column permutation of its own.  On the unit diagonal a small
    pivot threshold, ``PIVOT_THRESH``, keeps that order; without the
    scaling, diagonal entries down to 2e-7 of their column send SuperLU's
    partial pivoting off any fill-reducing order.  The inverse blocks and
    the LU are made once per factor.

    Parameters
    ----------
    a : scipy.sparse.bsr_matrix
        3x3 nodal blocks in the pattern of ``order``.
    order : NodalOrder
        Pattern, nodal blocks and node order of ``a``, as
        ``PressSystem.newton_order`` gives them.

    Raises
    ------
    ValueError
        If ``a`` does not have the block size and pattern of ``order``.
    LinearSolveError
        If ``a`` has a non-finite entry or a singular nodal block, or if
        factorization fails.
    """

    def __init__(self, a, order):
        if not (a.format == "bsr" and a.blocksize == (N_VARS, N_VARS)
                and np.array_equal(a.indptr, order.indptr)
                and np.array_equal(a.indices, order.indices)):
            raise ValueError("matrix does not have the pattern of this order")
        if not np.all(np.isfinite(a.data)):
            raise LinearSolveError("matrix has non-finite entries")
        try:
            dinv = np.linalg.inv(a.data[order.diag])
        except np.linalg.LinAlgError as exc:
            raise LinearSolveError(f"singular nodal block: {exc}") from exc
        scaled = order.csc(dinv[order.block_row] @ a.data)
        try:
            self.lu = splu(scaled, permc_spec="NATURAL",
                           diag_pivot_thresh=PIVOT_THRESH)
        except RuntimeError as exc:
            raise LinearSolveError(
                f"sparse factorization failed: {exc}") from exc
        self.dinv, self.dofs = dinv, order.dofs

    def solve(self, b):
        """``x`` with ``a x = b``: one back-substitution.  The scaled
        factor is stable, so its solution already has the accuracy that
        iterative refinement in working precision could give.

        Raises
        ------
        LinearSolveError
            If the solution has non-finite values.
        """
        y = self.lu.solve(
            (self.dinv @ b.reshape(len(self.dinv), -1, 1)).ravel()[self.dofs])
        x = np.empty_like(y)
        x[self.dofs] = y
        if not np.all(np.isfinite(x)):
            raise LinearSolveError("linear solve produced non-finite values")
        return x


def linear_solve(a, b, order):
    """Solve ``a x = b`` once: ``LUFactor(a, order).solve(b)``."""
    return LUFactor(a, order).solve(b)


@dataclass
class LaggedJacobian:
    """The factored Newton matrix that successive Newton solves share.

    ``factor`` is the :class:`LUFactor` of the Jacobian built for step
    ``dt``, or None; ``builds`` counts the Jacobians built into it.  The
    integrating loop makes one and hands it to every solve of a run, so a
    factor built at one step serves the next while it contracts.
    """

    factor: LUFactor | None = None
    dt: float | None = None
    builds: int = 0


@dataclass
class StepResult:
    u: np.ndarray
    dt_used: float
    newton_iters: int
    residual_norm: float
    halvings: int = 0
    jacobian_builds: int = 0


def newton_solve(system, u_prev, dt, t_new, lagged=None):
    """One backward-Euler solve at fixed dt; ``dt = inf`` solves the
    steady problem.

    Newton with a lagged factor (chord iterations).  The factor in
    ``lagged`` is reused while each iteration cuts the residual norm
    ``REUSE_CONTRACTION``-fold; an iteration that cuts it less has the
    next one build a new Jacobian.  A lagged update that does not lower
    the residual is dropped and the Jacobian rebuilt at the same iterate.
    The update from a freshly built factor is always taken, halved once
    when the residual norm increases.  A factor built for another dt is
    never reused.  Without ``lagged``, the factor lives for this solve
    only.  The stopping rule is that of :class:`SolverConfig`.

    Raises
    ------
    NewtonError
        If the tolerance is not reached within
        ``SolverConfig.newton_max_iter`` linear solves.
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
    target = max(SolverConfig.newton_tol_rel * r0, SolverConfig.newton_tol_abs)
    history = [r0]
    if r0 <= target:
        return v, 0, r0
    if lagged is None:
        lagged = LaggedJacobian()
    if lagged.dt != dt:
        lagged.factor = None
    for it in range(1, SolverConfig.newton_max_iter + 1):
        fresh = lagged.factor is None
        if fresh:
            lagged.factor = LUFactor(
                fd_jacobian(system, v, t_new, dt, u_prev),
                system.newton_order)
            lagged.dt = dt
            lagged.builds += 1
        dx = lagged.factor.solve(-g)
        v_new = v + dx
        g_new, r_new = eval_residual(v_new)
        if not fresh and not r_new < history[-1]:
            # drop the update; the iterate, and its residual, stand
            lagged.factor = None
            history.append(history[-1])
            continue
        if r_new > history[-1]:
            v_half = v + 0.5 * dx
            g_half, r_half = eval_residual(v_half)
            if r_half < r_new:
                v_new, g_new, r_new = v_half, g_half, r_half
        if g_new is None:
            raise NewtonError(
                f"iterate left the physical domain at t={t_new:.6g} "
                f"(dt={dt:.3g})", residual_history=history)
        if r_new > REUSE_CONTRACTION * history[-1]:
            lagged.factor = None
        v, g = v_new, g_new
        history.append(r_new)
        if r_new <= target:
            return v, it, r_new
    raise NewtonError(
        f"no convergence in {SolverConfig.newton_max_iter} iterations at "
        f"t={t_new:.6g} (dt={dt:.3g})", residual_history=history)


def implicit_step(system, u, t, dt, lagged=None):
    """Backward-Euler step with automatic dt halving on failure.

    Returns a StepResult whose ``dt_used`` may be smaller than requested;
    the caller resumes from ``t + dt_used``.  ``lagged`` is the run's
    :class:`LaggedJacobian`; without it the step's attempts share a
    factor of their own.

    Raises
    ------
    NewtonError
        If the step still fails after ``MAX_HALVINGS`` halvings.
    """
    lagged = lagged or LaggedJacobian()
    builds = lagged.builds
    dt_try = dt
    last_exc = None
    for halving in range(MAX_HALVINGS + 1):
        try:
            v, iters, r_final = newton_solve(system, u, dt_try, t + dt_try,
                                             lagged)
            validate_state(v, a_tol=AIR_UNDERSHOOT_TOL)
            return StepResult(v, dt_try, iters, r_final, halving,
                              lagged.builds - builds)
        except HotPressError as exc:
            last_exc = exc
            dt_try *= 0.5
    raise NewtonError(
        f"step at t={t:.6g} failed after {MAX_HALVINGS} dt halvings "
        f"(last dt={dt_try * 2:.3g}): {last_exc}"
    )


def forward_euler_step(system, u, t, dt):
    """Explicit step on the lumped rates, then re-assign constrained values."""
    rates = system.ode_rates(u, t)
    u_new = u + dt * rates
    system.apply_dirichlet(u_new, t + dt)
    validate_state(u_new, a_tol=AIR_UNDERSHOOT_TOL)
    return u_new


@dataclass
class TransientResult:
    """Everything a run produces.

    ``times``/``states`` hold the initial state, then every accepted step
    when ``store_all`` was set, otherwise the output times and the final
    time.  ``outputs`` maps each output time to its state in either case.
    An implicit run records, per accepted step, its Newton iterations, its
    dt halvings and its Jacobian builds, those of its failed attempts
    included.
    """

    times: list = field(default_factory=list)
    states: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    newton_iters: list = field(default_factory=list)
    jacobian_builds: list = field(default_factory=list)
    halvings: list = field(default_factory=list)
    dt_used: list = field(default_factory=list)
    water_balance: list = field(default_factory=list)  # (t, storage, influx)
    log: list = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def mean_newton_iters(self):
        return float(np.mean(self.newton_iters)) if self.newton_iters else 0.0


_TIME_SNAP = 1e-9


def run_transient(system, u0, cfg, log=None, store_all=False):
    """Integrate from t=0 to ``cfg.t_end`` with fixed nominal step
    ``cfg.dt`` and scheme ``cfg.scheme``.

    Output times of ``cfg.output_times`` up to ``t_end`` are hit exactly
    (the step shortens when one is closer than dt).  ``t_end = 0``
    returns just the initial state.  Past it, a state is stored at an
    output time, at the final time, and with ``store_all`` at every step
    (for trajectory diagnostics; off by default to bound memory).  Each
    accepted step emits one diagnostic log line; pass ``log`` as a
    callable to stream them.  The log holds no wall-clock time, so a run
    repeats it exactly; ``wall_time`` keeps the run's seconds.  Implicit
    runs record the per-step lumped-water balance.

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
    lagged = LaggedJacobian()
    res.times.append(0.0)
    res.states.append(u)

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
            step = implicit_step(system, u, t, dt_step, lagged)
            u = step.u
            t_new = t + step.dt_used
            res.newton_iters.append(step.newton_iters)
            res.jacobian_builds.append(step.jacobian_builds)
            res.halvings.append(step.halvings)
            res.dt_used.append(step.dt_used)
            emit(f"step t={t_new:.6g} dt={step.dt_used:.6g} "
                 f"newton={step.newton_iters} resid={step.residual_norm:.3e}")
            storage, influx = system.water_balance(
                u_before, u, step.dt_used, t_new)
            res.water_balance.append((t_new, storage, influx))
        else:
            u = forward_euler_step(system, u, t, dt_step)
            t_new = t + dt_step
            res.dt_used.append(dt_step)
            emit(f"step t={t_new:.6g} dt={dt_step:.6g} scheme=explicit")
        hit = bool(wanted) and abs(t_new - wanted[0]) <= _TIME_SNAP
        if hit:  # snap to the output time
            t_new = wanted.pop(0)
            res.outputs[t_new] = u
        t = t_new
        if store_all or hit or t >= t_end - _TIME_SNAP:
            res.times.append(t)
            res.states.append(u)
    res.wall_time = time.perf_counter() - started
    emit(f"done t={t:.6g} steps={len(res.dt_used)}")
    return res
