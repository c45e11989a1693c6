"""Tests for time integration, Newton solution and the Jacobian."""

from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from hotpress import assembly as asm
from hotpress import mesh as hm
from hotpress import solver as slv
from hotpress.errors import LinearSolveError, NewtonError, StepError
from hotpress.properties import HailwoodHorrobinIsotherm, MaterialParams
from hotpress.scenario import build_system, humphrey_preset, initial_state
from hotpress.solver import SolverConfig
from hotpress.verification import FrozenCoefficientSystem

AMBIENT = (30.0, 65.0, 101325.0)


def ramp_schedule(t):
    return float(np.interp(t, [0.0, 72.0], [30.0, 160.0]))


@pytest.fixture(scope="module")
def params():
    return MaterialParams(rho_s=586.0)


@pytest.fixture(scope="module")
def system(params):
    m = hm.build_graded_mesh(0.2828, 0.0075, 8, 8, 4.0)
    return asm.PressSystem(m, params, ramp_schedule, AMBIENT)


@pytest.fixture(scope="module")
def idle_system(params):
    """Same mesh, platen held at ambient: a true steady configuration."""
    m = hm.build_graded_mesh(0.2828, 0.0075, 8, 8, 4.0)
    return asm.PressSystem(m, params, lambda t: 30.0, AMBIENT)


@pytest.fixture(scope="module")
def u_start(system):
    n = system.mesh.n_nodes
    u = asm.pack_state(np.full(n, 30.0), np.full(n, 11.0), np.full(n, 1e-6))
    system.apply_dirichlet(u, 0.0)
    return u


@pytest.fixture(scope="module")
def preset():
    """The shipped case at t = 0: its system and initial state."""
    sc = humphrey_preset()
    system = build_system(sc)
    return system, initial_state(sc, system.mesh)


@pytest.fixture(scope="module")
def u_smooth(system, u_start):
    """State after five implicit seconds: smooth but far from equilibrium."""
    u, t = u_start.copy(), 0.0
    for _ in range(5):
        step = slv.implicit_step(system, u, t, 1.0)
        u, t = step.u, t + step.dt_used
    return u, t


class TestEulerUpdate:
    def test_scalar_decay_oracle(self):
        # du/dt = -u at u=1 with dt=0.1 steps to 0.9
        assert slv.euler_update(1.0, -1.0, 0.1) == pytest.approx(0.9, rel=1e-15)

    def test_vector_form(self):
        u = np.array([1.0, 2.0])
        out = slv.euler_update(u, np.array([-1.0, 1.0]), 0.5)
        assert np.allclose(out, [0.5, 2.5])


class TestEquilibriumFixedPoint:
    def make_equilibrium(self, system):
        n = system.mesh.n_nodes
        return asm.pack_state(np.full(n, 30.0), np.full(n, 11.0),
                              np.full(n, system.rim_air_bc(30.0)))

    def test_implicit_step_is_identity(self, idle_system):
        u = self.make_equilibrium(idle_system)
        step = slv.implicit_step(idle_system, u, 0.0, 1.0)
        assert step.newton_iters == 0
        assert np.array_equal(step.u, u)

    def test_explicit_step_is_identity(self, idle_system):
        u = self.make_equilibrium(idle_system)
        u_new = slv.forward_euler_step(idle_system, u, 0.0, 1.0)
        assert np.abs(u_new - u).max() < 1e-8


class TestCrossSchemeConsistency:
    def test_per_step_quadratic_bound(self, system, u_smooth):
        u, t = u_smooth
        dt = 1e-3
        ue = slv.forward_euler_step(system, u, t, dt)
        ui = slv.implicit_step(system, u, t, dt).u
        diff = np.abs(ue - ui).max()
        # constant frozen from a reference run of this configuration
        # (measured 0.28 * dt**2); generous factor-2 headroom
        assert diff < 0.5 * dt**2, (
            f"one-step scheme difference {diff:.3e} exceeds C*dt^2"
        )

    def test_difference_shrinks_quadratically(self, system, u_smooth):
        """Smooth (non-stiff) components: one-step difference ~ dt^2."""
        u, t = u_smooth
        diffs = {}
        for dt in (1e-3, 2.5e-4):
            ue = slv.forward_euler_step(system, u, t, dt)
            ui = slv.implicit_step(system, u, t, dt).u
            d = np.abs(ue - ui).reshape(-1, 3)
            diffs[dt] = (d[:, 0].max(), d[:, 1].max())
        for comp in range(2):
            ratio = diffs[1e-3][comp] / diffs[2.5e-4][comp]
            assert 10.0 < ratio < 22.0, (
                f"component {comp} diff ratio {ratio:.1f} not ~16 (= 4^2)"
            )


class TestNewton:
    def test_frozen_linear_single_iteration(self, system, u_smooth):
        u, t = u_smooth
        frozen = FrozenCoefficientSystem(system, u)
        step = slv.implicit_step(frozen, u, t, 1.0)
        assert step.newton_iters == 1, (
            f"linear system took {step.newton_iters} Newton iterations"
        )
        assert step.residual_norm < 1e-12

    def test_converges_from_press_start(self, system, u_start):
        step = slv.implicit_step(system, u_start, 0.0, 1.0)
        assert step.halvings == 0
        assert step.newton_iters <= 8
        assert step.residual_norm < 1e-9

    def test_halving_ladder_recovers_large_step(self, system, u_start):
        step = slv.implicit_step(system, u_start, 0.0, 256.0)
        assert step.halvings >= 1
        assert step.dt_used == pytest.approx(256.0 / 2**step.halvings)
        # every attempt, failed or not, builds at least one Jacobian
        assert step.jacobian_builds >= step.halvings + 1

    def test_exhausted_ladder_raises(self, system, u_start):
        with pytest.raises(NewtonError):
            slv.implicit_step(system, u_start, 0.0, 1.0,
                              SolverConfig(newton_max_iter=1))

    def test_newton_error_carries_history(self, system, u_start):
        with pytest.raises(NewtonError) as excinfo:
            slv.newton_solve(system, u_start, 1.0, 1.0,
                             SolverConfig(newton_max_iter=1))
        assert excinfo.value.residual_history is not None
        assert len(excinfo.value.residual_history) >= 1


class TestJacobianReuse:
    """Newton solves keep a factored Jacobian while it contracts."""

    @pytest.fixture(scope="class")
    def preset_run(self, preset):
        system, u0 = preset
        cfg = replace(humphrey_preset().solver, t_end=10.0, output_times=(),
                      store_all=True)
        return system, cfg, slv.run_transient(system, u0, cfg)

    def test_preset_builds_fewer_jacobians_and_meets_every_target(
            self, preset_run):
        """Over the preset's first 10 s a Jacobian per iteration would be
        33 builds; the lagged factor serves most of them."""
        system, cfg, res = preset_run
        assert len(res.jacobian_builds) == len(res.dt_used) == 10
        assert res.halvings == [0] * 10
        assert sum(res.jacobian_builds) <= 20, res.jacobian_builds
        finals = [float(line.rsplit("resid=", 1)[1]) for line in res.log
                  if line.startswith("step ")]
        for k, final in enumerate(finals):
            u, t_new = res.states[k], res.times[k + 1]
            r0 = slv.rms(system.residual(u, np.zeros_like(u), t_new))
            target = max(cfg.newton_tol_rel * r0, cfg.newton_tol_abs)
            assert final <= target, f"step {k + 1}: {final:.2e} > {target:.2e}"

    def test_stale_factor_reaches_the_same_target(self, preset, preset_run):
        """A factor built at t = 0 serves the solve at t = 10 s: it costs
        iterations or a rebuild, never accuracy."""
        system, u0 = preset
        _, cfg, res = preset_run
        lagged = slv.LaggedJacobian(slv.LUFactor(
            slv.fd_jacobian(system, u0, 1.0, 1.0, u0), system.newton_order),
            dt=1.0)
        u = res.states[10]
        v, iters, r_final = slv.newton_solve(system, u, 1.0, 11.0, cfg, lagged)
        r0 = slv.rms(system.residual(u, np.zeros_like(u), 11.0))
        assert r_final <= max(cfg.newton_tol_rel * r0, cfg.newton_tol_abs)
        assert 1 <= iters <= cfg.newton_max_iter
        fresh, _, _ = slv.newton_solve(system, u, 1.0, 11.0, cfg)
        scale = np.tile([1.0, 0.1, 0.01], system.mesh.n_nodes)
        assert np.max(np.abs(v - fresh) / scale) < 1e-7

    def test_factor_of_another_dt_is_rebuilt(self, system, u_start):
        class Stale:
            def solve(self, b):
                raise AssertionError("a factor built for dt = 0.5 was used")

        lagged = slv.LaggedJacobian(Stale(), dt=0.5)
        slv.newton_solve(system, u_start, 1.0, 1.0, SolverConfig(), lagged)
        assert lagged.dt == 1.0 and lagged.builds >= 1

    def test_lagged_update_that_raises_the_residual_is_dropped(
            self, system, u_start):
        """The bad update costs one iteration; the solve then goes on from
        the same iterate exactly as a solve without a held factor."""
        class Wild:
            def solve(self, b):
                return np.full_like(b, 50.0)

        cfg = SolverConfig()
        fresh, iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0, cfg)
        lagged = slv.LaggedJacobian(Wild(), dt=1.0)
        v, lagged_iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0, cfg,
                                              lagged)
        assert lagged_iters == iters + 1
        assert np.array_equal(v, fresh)

    def test_calls_without_a_holder_do_not_share_a_factor(self, system,
                                                          u_smooth):
        u, t = u_smooth
        cfg = SolverConfig()
        first = slv.newton_solve(system, u, 1.0, t + 1.0, cfg)
        slv.newton_solve(system, u, 1.0, t + 1.0, cfg, slv.LaggedJacobian())
        second = slv.newton_solve(system, u, 1.0, t + 1.0, cfg)
        assert first[1] == second[1]
        assert np.array_equal(first[0], second[0])


class TestJacobian:
    def test_directional_consistency(self, system, u_smooth):
        u, t = u_smooth
        rng = np.random.default_rng(11)
        u_prev = u - 0.01 * rng.standard_normal(u.size) * np.tile(
            [1.0, 0.5, 0.05], system.mesh.n_nodes)
        dt = 0.5
        jac = slv.fd_jacobian(system, u, t, dt=dt, u_prev=u_prev)
        for _ in range(3):
            w = rng.standard_normal(u.size) * np.tile(
                [1.0, 0.5, 0.05], system.mesh.n_nodes)
            s = 1e-6
            gp = system.residual(u + s * w, (u + s * w - u_prev) / dt, t)
            gm = system.residual(u - s * w, (u - s * w - u_prev) / dt, t)
            fd = (gp - gm) / (2 * s)
            err = np.linalg.norm(jac @ w - fd) / np.linalg.norm(fd)
            assert err < 1e-5, f"directional derivative error {err:.2e}"

    def test_element_sparsity(self, system, u_smooth):
        """Nodes couple only when they share an element."""
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        m = system.mesh
        # adjacency from elements
        n = m.n_nodes
        adj = np.zeros((n, n), dtype=bool)
        for el in m.elements:
            for a in el:
                adj[a, el] = True
        dense_mask = np.abs(jac.toarray()) > 0
        for i in range(n):
            for c in range(3):
                row = dense_mask[3 * i + c].reshape(n, 3).any(axis=1)
                assert not np.any(row & ~adj[i]), (
                    f"row node {i} couples to a non-neighbor"
                )

    def test_constrained_rows_unit_diagonal(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u).toarray()
        for dof in system.platen_tdofs:
            row = jac[dof]
            assert row[dof] == pytest.approx(1.0)
            assert np.count_nonzero(row) == 1
        # rim moisture rows: unit diagonal plus temperature sensitivity
        for hdof, tdof in zip(system.rim_hdofs, system.rim_tdofs):
            row = jac[hdof]
            assert row[hdof] == pytest.approx(1.0)
            nz = set(np.nonzero(row)[0]) - {hdof, tdof}
            assert not nz

    def test_structurally_symmetric(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        a = (np.abs(jac.toarray()) > 0)
        free = np.ones(system.n_dofs, dtype=bool)
        free[system.constrained_dofs()] = False
        sub = a[np.ix_(free, free)]
        assert np.array_equal(sub, sub.T)

    def test_matches_dofwise_difference_of_the_residual(self, params):
        """Every column equals a one-dof-at-a-time difference of the global
        residual, so no corner is spliced from the wrong node."""
        m = hm.build_graded_mesh(0.2828, 0.0075, 3, 3, 4.0)
        system = asm.PressSystem(m, params, ramp_schedule, AMBIENT)
        rng = np.random.default_rng(3)
        n = m.n_nodes
        u = asm.pack_state(30.0 + 90.0 * rng.random(n), 5.0 + 7.0 * rng.random(n),
                           0.2 + 0.8 * rng.random(n))
        u_prev = u - 0.1 * rng.standard_normal(u.size)
        t, dt = 40.0, 0.5

        def g(v):
            return system.residual(v, (v - u_prev) / dt, t)

        jac = slv.fd_jacobian(system, u, t, dt=dt, u_prev=u_prev).toarray()
        delta = asm.fd_step(u, 1e-7)
        g0 = g(u)
        for j in range(u.size):
            v = u.copy()
            v[j] += delta[j]
            col = (g(v) - g0) / delta[j]
            err = np.linalg.norm(jac[:, j] - col) / np.linalg.norm(col)
            assert err < 1e-6, f"column {j} off by {err:.2e}"

    def test_isotherm_inverted_once_per_node_and_state(self, system, u_smooth,
                                                       monkeypatch):
        """A residual evaluates the material laws on the nodes once; a
        Jacobian on four nodal states."""
        u, t = u_smooth
        points = []
        inverse = HailwoodHorrobinIsotherm.hr_from_emc

        def counted(iso, t_c, h_pct):
            points.append(np.size(h_pct))
            return inverse(iso, t_c, h_pct)

        monkeypatch.setattr(HailwoodHorrobinIsotherm, "hr_from_emc", counted)
        n = system.mesh.n_nodes
        system.residual(u, np.zeros_like(u), t)
        assert sum(points) == n
        points.clear()
        slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        assert sum(points) == 4 * n


class TestLinearSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        n = 40
        a = sparse.random(n, n, density=0.2, random_state=5).toarray()
        a += n * np.eye(n)
        b = rng.standard_normal(n)
        x = slv.linear_solve(sparse.csr_matrix(a), b)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10)

    def test_refinement_reaches_tight_residual(self):
        rng = np.random.default_rng(9)
        n = 60
        a = sparse.random(n, n, density=0.1, random_state=9).toarray()
        a += np.diag(np.linspace(1.0, 1e6, n))  # poorly scaled
        b = rng.standard_normal(n)
        a_s = sparse.csr_matrix(a)
        x = slv.linear_solve(a_s, b)
        rel = np.linalg.norm(b - a_s @ x) / np.linalg.norm(b)
        assert rel <= 1e-12

    def test_singular_raises(self):
        a = sparse.csr_matrix(np.zeros((3, 3)))
        with pytest.raises(LinearSolveError):
            slv.linear_solve(a, np.ones(3))

    def test_zero_rhs(self):
        a = sparse.csr_matrix(np.eye(3))
        assert np.array_equal(slv.linear_solve(a, np.zeros(3)), np.zeros(3))

    def test_zero_nodal_block_raises(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        first = 3 * 40  # the dofs of node 40
        jac[first:first + 3, first:first + 3] = 0.0  # they stay in the pattern
        with pytest.raises(LinearSolveError, match="singular nodal block"):
            slv.linear_solve(jac, np.ones(system.n_dofs), system.newton_order)

    def test_nan_entry_raises(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        jac.data[jac.nnz // 2] = np.nan
        with pytest.raises(LinearSolveError, match="non-finite"):
            slv.linear_solve(jac, np.ones(system.n_dofs), system.newton_order)

    def test_singular_matrix_with_regular_blocks_raises(self):
        """Both nodal blocks are the identity; the matrix is singular."""
        a = sparse.csr_matrix(np.block([[np.eye(3), np.eye(3)],
                                        [np.eye(3), np.eye(3)]]))
        order = asm.NodalOrder(a.indptr, a.indices, np.array([1, 0]))
        with pytest.raises(LinearSolveError, match="factorization failed"):
            slv.linear_solve(a, np.ones(6), order)

    def test_matrix_of_another_pattern_is_refused(self, system):
        a = sparse.csr_matrix(np.eye(system.n_dofs))
        with pytest.raises(ValueError, match="pattern"):
            slv.linear_solve(a, np.ones(system.n_dofs), system.newton_order)


class TestFillGuard:
    """The scaled, nested-dissection factorization of the preset's Newton
    matrix.  COLAMD on the unscaled matrix fills 195k-214k entries and the
    natural order 169k.  Unscaled, SuperLU interchanges 67 rows at t = 0
    and more as the run goes on, and fill grows with them."""

    @pytest.mark.parametrize("steps", [0, 1])
    def test_fill_and_accuracy(self, preset, steps, monkeypatch):
        system, u = preset
        t = 0.0
        for _ in range(steps):
            u, t = slv.implicit_step(system, u, t, 1.0).u, t + 1.0
        jac = slv.fd_jacobian(system, u, t + 1.0, dt=1.0, u_prev=u)
        b = np.random.default_rng(7).standard_normal(system.n_dofs)
        factors = []
        factor = slv.splu

        def recorded(*args, **kwargs):
            factors.append(factor(*args, **kwargs))
            return factors[-1]

        monkeypatch.setattr(slv, "splu", recorded)
        x = slv.linear_solve(jac, b, system.newton_order)
        lu = factors[0]
        fill = lu.L.nnz + lu.U.nnz
        assert fill <= 150_000, f"LU fill {fill}"
        swaps = np.count_nonzero(lu.perm_r != np.arange(system.n_dofs))
        assert swaps == 0, f"{swaps} row interchanges left the order"
        dense = np.linalg.solve(jac.toarray(), b)
        err = np.linalg.norm(x - dense) / np.linalg.norm(dense)
        assert err <= 1e-10, f"relative error {err:.1e}"


class TestRunTransient:
    def test_zero_horizon_returns_initial_state(self, system, u_start):
        res = slv.run_transient(system, u_start, SolverConfig(t_end=0.0))
        assert res.times == [0.0]
        assert np.array_equal(res.states[0], u_start)

    def test_output_times_hit_exactly(self, system, u_start):
        res = slv.run_transient(system, u_start, SolverConfig(
            t_end=0.55, dt=0.2, output_times=(0.3, 0.55)))
        assert sorted(res.outputs) == [0.3, 0.55]

    def test_store_all_keeps_every_step(self, system, u_start):
        res = slv.run_transient(system, u_start, SolverConfig(
            t_end=0.5, dt=0.1, store_all=True))
        assert len(res.times) == len(res.dt_used) + 1
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.5)

    def test_log_lines_emitted(self, system, u_start):
        res = slv.run_transient(system, u_start,
                                SolverConfig(t_end=0.3, dt=0.1))
        step_lines = [ln for ln in res.log if ln.startswith("step ")]
        assert len(step_lines) == 3
        assert "newton=" in step_lines[0] and "resid=" in step_lines[0]

    def test_deterministic(self, system, u_start):
        cfg = SolverConfig(t_end=0.4, dt=0.2, store_all=True)
        r1 = slv.run_transient(system, u_start, cfg)
        r2 = slv.run_transient(system, u_start, cfg)
        assert all(np.array_equal(a, b) for a, b in zip(r1.states, r2.states))

    def test_water_balance_recorded(self, system, u_start):
        res = slv.run_transient(system, u_start,
                                SolverConfig(t_end=0.3, dt=0.1))
        assert len(res.water_balance) == 3
        t, storage, influx = res.water_balance[0]
        assert t == pytest.approx(0.1)
        assert np.isfinite(storage) and np.isfinite(influx)

    def test_explicit_scheme_advisory_logged(self, idle_system):
        # dt above the diffusive advisory triggers the warning; stepping from
        # equilibrium keeps the oversized step harmless
        n = idle_system.mesh.n_nodes
        u = asm.pack_state(np.full(n, 30.0), np.full(n, 11.0),
                           np.full(n, idle_system.rim_air_bc(30.0)))
        dt = 2.0 * idle_system.stable_dt_advisory(u)
        res = slv.run_transient(idle_system, u, SolverConfig(
            t_end=dt, dt=dt, scheme="explicit"))
        assert any("advisory" in ln for ln in res.log)

    def test_step_counts_recorded(self, system, u_start, monkeypatch):
        """Each accepted step records its dt halvings and Jacobian builds,
        the builds of its failed attempts included."""
        validate = slv.validate_state
        rejected = []

        def reject_first_step(u, h_tol=1e-9, a_tol=None):
            if a_tol is not None and not rejected:
                rejected.append(True)
                raise StepError("synthetic rejection")
            validate(u, h_tol, a_tol)

        builds = []
        build = slv.fd_jacobian

        def counted(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        monkeypatch.setattr(slv, "validate_state", reject_first_step)
        monkeypatch.setattr(slv, "fd_jacobian", counted)
        res = slv.run_transient(system, u_start,
                                SolverConfig(t_end=0.3, dt=0.1))
        assert sum(res.jacobian_builds) == len(builds)
        assert res.halvings[0] == 1
        assert res.dt_used[0] == pytest.approx(0.05)
        assert len(res.halvings) == len(res.jacobian_builds) \
            == len(res.dt_used)
        assert res.jacobian_builds[0] >= 2
        assert all(h == 0 for h in res.halvings[1:])
        assert all(b <= n for b, n in zip(res.jacobian_builds[1:],
                                          res.newton_iters[1:]))

    def test_mean_newton_iters(self):
        res = slv.TransientResult(newton_iters=[3, 5, 4])
        assert res.mean_newton_iters == pytest.approx(4.0)
