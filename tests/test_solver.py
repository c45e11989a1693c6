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
from hotpress.scenario import build_system, humphrey_preset, initial_state, \
    run_scenario
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

    def test_exhausted_ladder_raises(self, system, u_start, monkeypatch):
        monkeypatch.setattr(SolverConfig, "newton_max_iter", 1)
        with pytest.raises(NewtonError):
            slv.implicit_step(system, u_start, 0.0, 1.0)

    def test_newton_error_carries_history(self, system, u_start,
                                          monkeypatch):
        monkeypatch.setattr(SolverConfig, "newton_max_iter", 1)
        with pytest.raises(NewtonError) as excinfo:
            slv.newton_solve(system, u_start, 1.0, 1.0)
        assert excinfo.value.residual_history is not None
        assert len(excinfo.value.residual_history) >= 1


    def test_stopping_rule_is_read_at_each_call(self, system, u_start,
                                                monkeypatch):
        """The class constants are the stopping rule: a floor above the
        initial residual accepts the start state."""
        _, iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0)
        assert iters >= 1
        monkeypatch.setattr(SolverConfig, "newton_tol_abs", 1e300)
        v, iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0)
        assert iters == 0 and np.array_equal(v, u_start)


class TestJacobianReuse:
    """Newton solves keep a factored Jacobian while it contracts."""

    @pytest.fixture(scope="class")
    def preset_run(self, preset):
        system, u0 = preset
        cfg = replace(humphrey_preset().solver, t_end=10.0, output_times=())
        return system, cfg, slv.run_transient(system, u0, cfg, store_all=True)

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
        v, iters, r_final = slv.newton_solve(system, u, 1.0, 11.0, lagged)
        r0 = slv.rms(system.residual(u, np.zeros_like(u), 11.0))
        assert r_final <= max(cfg.newton_tol_rel * r0, cfg.newton_tol_abs)
        assert 1 <= iters <= cfg.newton_max_iter
        fresh, _, _ = slv.newton_solve(system, u, 1.0, 11.0)
        scale = np.tile([1.0, 0.1, 0.01], system.mesh.n_nodes)
        assert np.max(np.abs(v - fresh) / scale) < 1e-7

    def test_factor_of_another_dt_is_rebuilt(self, system, u_start):
        class Stale:
            def solve(self, b):
                raise AssertionError("a factor built for dt = 0.5 was used")

        lagged = slv.LaggedJacobian(Stale(), dt=0.5)
        slv.newton_solve(system, u_start, 1.0, 1.0, lagged)
        assert lagged.dt == 1.0 and lagged.builds >= 1

    def test_lagged_update_that_raises_the_residual_is_dropped(
            self, system, u_start):
        """The bad update costs one iteration; the solve then goes on from
        the same iterate exactly as a solve without a held factor."""
        class Wild:
            def solve(self, b):
                return np.full_like(b, 50.0)

        fresh, iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0)
        lagged = slv.LaggedJacobian(Wild(), dt=1.0)
        v, lagged_iters, _ = slv.newton_solve(system, u_start, 1.0, 1.0,
                                              lagged)
        assert lagged_iters == iters + 1
        assert np.array_equal(v, fresh)

    def test_calls_without_a_holder_do_not_share_a_factor(self, system,
                                                          u_smooth):
        u, t = u_smooth
        first = slv.newton_solve(system, u, 1.0, t + 1.0)
        slv.newton_solve(system, u, 1.0, t + 1.0, slv.LaggedJacobian())
        second = slv.newton_solve(system, u, 1.0, t + 1.0)
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
        free[system.constrained_dofs] = False
        sub = a[np.ix_(free, free)]
        assert np.array_equal(sub, sub.T)

    def test_matches_dofwise_difference_of_the_residual(self, params):
        """On an open 4 x 4 mesh every column, constrained rows included,
        equals a centered one-dof-at-a-time difference of the global
        residual, and the matrix holds the 3x3 nodal blocks of
        ``newton_order``, one per pair of nodes that share an element: a
        corner spliced from the wrong node, or an element block summed
        into the wrong nodal block, fails the column it lands in."""
        m = hm.build_graded_mesh(0.2828, 0.0075, 4, 4, 4.0)
        system = asm.PressSystem(m, params, ramp_schedule, AMBIENT)
        rng = np.random.default_rng(3)
        n = m.n_nodes
        u = asm.pack_state(30.0 + 90.0 * rng.random(n), 5.0 + 7.0 * rng.random(n),
                           0.2 + 0.8 * rng.random(n))
        u_prev = u - 0.1 * rng.standard_normal(u.size)
        t, dt = 40.0, 0.5

        def g(v):
            return system.residual(v, (v - u_prev) / dt, t)

        jac = slv.fd_jacobian(system, u, t, dt=dt, u_prev=u_prev)
        order = system.newton_order
        assert jac.format == "bsr" and jac.blocksize == (3, 3)
        assert len(order.indices) == (3 * 4 + 1) ** 2
        assert np.array_equal(jac.indptr, order.indptr)
        assert np.array_equal(jac.indices, order.indices)
        dense = jac.toarray()
        delta = 10.0 * asm.fd_step(u)
        for j in range(u.size):
            v_p, v_m = u.copy(), u.copy()
            v_p[j] += delta[j]
            v_m[j] -= delta[j]
            col = (g(v_p) - g(v_m)) / (2.0 * delta[j])
            err = np.linalg.norm(dense[:, j] - col) / np.linalg.norm(col)
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


def nodal(a):
    """Dense ``a`` as a BSR matrix of 3x3 blocks, every block stored, and
    the NodalOrder of its pattern with the nodes in reverse order."""
    n = len(a) // 3
    blocks = np.asarray(a, dtype=float).reshape(n, 3, n, 3).swapaxes(1, 2)
    a = sparse.bsr_matrix((blocks.reshape(-1, 3, 3), np.tile(np.arange(n), n),
                           np.arange(0, n * n + 1, n)), shape=(3 * n, 3 * n))
    return a, asm.NodalOrder(a.indptr, a.indices, np.arange(n)[::-1])


class TestLinearSolve:
    def test_matches_dense_solve(self):
        rng = np.random.default_rng(5)
        n = 42
        a = sparse.random(n, n, density=0.2, random_state=5).toarray()
        a += n * np.eye(n)
        b = rng.standard_normal(n)
        a_s, order = nodal(a)
        x = slv.linear_solve(a_s, b, order)
        assert np.allclose(x, np.linalg.solve(a, b), rtol=1e-10)

    def test_poorly_scaled_matrix_reaches_tight_residual(self):
        rng = np.random.default_rng(9)
        n = 60
        a = sparse.random(n, n, density=0.1, random_state=9).toarray()
        a += np.diag(np.linspace(1.0, 1e6, n))  # poorly scaled
        b = rng.standard_normal(n)
        a_s, order = nodal(a)
        x = slv.linear_solve(a_s, b, order)
        rel = np.linalg.norm(b - a_s @ x) / np.linalg.norm(b)
        assert rel <= 1e-12

    def test_singular_raises(self):
        # the second matrix swaps two nodes: its diagonal blocks are zero
        for a in (np.zeros((3, 3)), np.kron([[0.0, 1.0], [1.0, 0.0]],
                                             np.eye(3))):
            a, order = nodal(a)
            with pytest.raises(LinearSolveError):
                slv.linear_solve(a, np.ones(a.shape[0]), order)

    def test_zero_rhs(self):
        a, order = nodal(np.eye(6))
        assert np.array_equal(slv.linear_solve(a, np.zeros(6), order),
                              np.zeros(6))

    def test_zero_nodal_block_raises(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        jac.data[system.newton_order.diag[40]] = 0.0  # the block of node 40
        with pytest.raises(LinearSolveError, match="singular nodal block"):
            slv.linear_solve(jac, np.ones(system.n_dofs), system.newton_order)

    def test_nan_entry_raises(self, system, u_smooth):
        u, t = u_smooth
        jac = slv.fd_jacobian(system, u, t, dt=1.0, u_prev=u)
        jac.data[len(jac.data) // 2, 1, 2] = np.nan
        with pytest.raises(LinearSolveError, match="non-finite"):
            slv.linear_solve(jac, np.ones(system.n_dofs), system.newton_order)

    def test_singular_matrix_with_regular_blocks_raises(self):
        """Both nodal blocks are the identity; the matrix is singular."""
        a = sparse.bsr_matrix(np.block([[np.eye(3), np.eye(3)],
                                        [np.eye(3), np.eye(3)]]),
                              blocksize=(3, 3))
        order = asm.NodalOrder(a.indptr, a.indices, np.array([1, 0]))
        with pytest.raises(LinearSolveError, match="factorization failed"):
            slv.linear_solve(a, np.ones(6), order)

    def test_matrix_of_another_pattern_is_refused(self, system):
        a = sparse.csr_matrix(np.eye(system.n_dofs))
        with pytest.raises(ValueError, match="pattern"):
            slv.linear_solve(a, np.ones(system.n_dofs), system.newton_order)

    def test_matrix_of_another_block_size_is_refused(self):
        """The pattern is right at 3x3 blocks; the matrix has 1x1 ones."""
        order = nodal(np.eye(6))[1]
        a = sparse.bsr_matrix(np.eye(6), blocksize=(1, 1))
        with pytest.raises(ValueError, match="pattern"):
            slv.linear_solve(a, np.ones(6), order)


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
            t_end=0.5, dt=0.1), store_all=True)
        assert len(res.times) == len(res.dt_used) + 1
        assert res.times[0] == 0.0 and res.times[-1] == pytest.approx(0.5)

    def test_final_state_stored_off_the_grid(self, system, u_start):
        """t_end = 0.25 is neither an output time nor a multiple of dt:
        the last step is shortened to end there, and its state closes the
        stored trajectory whether or not every step is kept."""
        cfg = SolverConfig(t_end=0.25, dt=0.1, output_times=(0.1,))
        every = slv.run_transient(system, u_start, cfg, store_all=True)
        some = slv.run_transient(system, u_start, cfg)
        assert every.dt_used == pytest.approx([0.1, 0.1, 0.05])
        assert every.times == pytest.approx([0.0, 0.1, 0.2, 0.25])
        assert some.times == [every.times[i] for i in (0, 1, 3)]
        assert all(np.array_equal(u, every.states[i])
                   for u, i in zip(some.states, (0, 1, 3), strict=True))
        assert list(some.outputs) == list(every.outputs) == [0.1]
        assert np.array_equal(some.outputs[0.1], every.states[1])
        # an output is the stored state itself, not a copy of it
        assert some.outputs[0.1] is some.states[1]
        assert every.outputs[0.1] is every.states[1]

    def test_log_lines_emitted(self, system, u_start):
        res = slv.run_transient(system, u_start,
                                SolverConfig(t_end=0.3, dt=0.1))
        step_lines = [ln for ln in res.log if ln.startswith("step ")]
        assert len(step_lines) == 3
        assert "newton=" in step_lines[0] and "resid=" in step_lines[0]

    def test_deterministic(self, system, u_start):
        cfg = SolverConfig(t_end=0.4, dt=0.2)
        r1 = slv.run_transient(system, u_start, cfg, store_all=True)
        r2 = slv.run_transient(system, u_start, cfg, store_all=True)
        assert all(np.array_equal(a, b) for a, b in zip(r1.states, r2.states))
        assert r1.log == r2.log

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

        def reject_first_step(u, **kwargs):
            if kwargs and not rejected:  # a step's check passes a_tol
                rejected.append(True)
                raise StepError("synthetic rejection")
            validate(u, **kwargs)

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


class TestSealedExplicitRun:
    """Forward Euler on the sealed 10 x 10 humphrey board at dt = 3e-5 s:
    the free moisture rows conserve water, and each rate evaluation
    evaluates the material laws once per node."""

    @pytest.fixture(scope="class")
    def scenario(self):
        sc = humphrey_preset()
        return replace(sc, n_r=10, n_z=10, sealed_radius=True,
                       solver=replace(sc.solver, scheme="explicit", dt=3e-5,
                                      t_end=200 * 3e-5, output_times=()))

    def test_lumped_water_kept_over_200_steps(self, scenario):
        system, res = run_scenario(scenario, store_all=True)
        assert len(res.dt_used) == 200
        water = np.array([system.lumped_water(u) for u in res.states])
        drift = float(np.max(np.abs(water - water[0])) / water[0])
        assert drift <= 1e-12, f"sealed water drifted by {drift:.2e}"

    def test_rates_invert_the_isotherm_once_per_node(self, scenario,
                                                      monkeypatch):
        system = build_system(scenario)
        u = initial_state(scenario, system.mesh)
        points = []
        inverse = HailwoodHorrobinIsotherm.hr_from_emc

        def counted(iso, t_c, h_pct):
            points.append(np.size(h_pct))
            return inverse(iso, t_c, h_pct)

        monkeypatch.setattr(HailwoodHorrobinIsotherm, "hr_from_emc", counted)
        system.ode_rates(u, 0.0)
        assert points == [system.mesh.n_nodes]
