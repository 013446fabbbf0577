"""Subdomain solver oracles: factorization, Dirichlet/Robin solves
against dense space-time solves, flux recovery, causality, stability."""

from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from rrlab.assembly import (build_global_operators, build_step_operators,
                            build_subdomain_operators, lumped_interface_mass)
from rrlab.dense import (dense_space_time_matrix, dense_space_time_solve)
from rrlab.lab import default_problem, setup_problem
from rrlab.mesh import ProblemSpec, build_mesh, decompose
from rrlab.subsolve import (Factorization, InterfaceSignal, MonolithicSolver,
                            SolverFailure, SpaceTimeField, SubdomainSolver,
                            _band_order)


def make_solver(spec, i=1):
    mesh = build_mesh(spec)
    dec = decompose(mesh, spec)
    return SubdomainSolver(build_subdomain_operators(spec, mesh, dec, i))


def spec_1d(nx=4, n_steps=3, **kw):
    kw.setdefault("source", lambda x, t: np.cos(3 * x) + t)
    return ProblemSpec(dimension=1, nx=nx, interface_x=0.5, n_steps=n_steps, **kw)


def spec_2d(nx=4, n_steps=3, **kw):
    kw.setdefault("source", lambda x, y, t: np.cos(3 * x + y) + t)
    return ProblemSpec(dimension=2, nx=nx, ny=nx, interface_x=0.5,
                       n_steps=n_steps, **kw)


def primal(values):
    return InterfaceSignal(values, "primal")


def dual(values):
    return InterfaceSignal(values, "dual")


def factor(A, label="step matrix"):
    """A's Factorization in its band order, as a solver makes it, and a
    solve in A's own numbering through it: the right-hand side gathered
    into the band order and the result scattered back."""
    A = sp.csr_matrix(A)
    order = _band_order(A)
    fac = Factorization(A, label, order=order)

    def solve(rhs):
        rhs = np.asarray(rhs, dtype=float)
        x = np.empty_like(rhs)
        x[order] = fac.solve(rhs[order])
        return x
    return fac, solve


class TestFactorization:
    def test_identity(self):
        _, solve = factor(sp.identity(5, format="csc"))
        rhs = np.arange(5.0)
        np.testing.assert_allclose(solve(rhs), rhs, atol=1e-15)

    def test_hand_inverse_2x2(self):
        _, solve = factor(sp.csc_matrix(np.array([[2.0, 1.0], [1.0, 2.0]])))
        np.testing.assert_allclose(solve([1.0, 0.0]), [2 / 3, -1 / 3],
                                   rtol=1e-14)

    def test_random_spd_residual(self):
        rng = np.random.default_rng(0)
        B = rng.standard_normal((50, 50))
        A = B @ B.T + 50 * np.eye(50)
        _, solve = factor(sp.csc_matrix(A))
        b = rng.standard_normal(50)
        x = solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_singular_reports_identity(self):
        with pytest.raises(SolverFailure, match="broken block"):
            factor(sp.csc_matrix((3, 3)), label="broken block")

    @pytest.mark.parametrize("m", [12, 16])
    def test_permuted_shifted_laplacian_matches_spsolve(self, m):
        # a scattered sparsity pattern: RCM must recover a narrow band
        rng = np.random.default_rng(4)
        T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(m, m))
        L = sp.kron(T, sp.eye(m)) + sp.kron(sp.eye(m), T) + 0.1 * sp.eye(m * m)
        p = rng.permutation(m * m)
        A = sp.csr_matrix(L)[p][:, p]
        b = rng.standard_normal(m * m)
        x = factor(A)[1](b)
        ref = spla.spsolve(A.tocsc(), b)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_unsymmetric_rejected_with_label(self):
        A = sp.csr_matrix(np.array([[2.0, 1.0], [0.0, 2.0]]))
        with pytest.raises(ValueError, match="lopsided block"):
            factor(A, label="lopsided block")

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_entries_refused_with_label(self, bad):
        # an overflowing coefficient makes inf (and inf - inf = nan)
        # entries; they are refused before the symmetry check, whose
        # nan != nan would call the matrix unsymmetric
        A = sp.csr_matrix(np.array([[bad, 1.0], [1.0, 2.0]]))
        with pytest.raises(SolverFailure,
                           match="overflow block has non-finite entries"):
            factor(A, label="overflow block")

    def test_indefinite_reports_identity(self):
        A = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(SolverFailure, match="singular saddle block"):
            factor(A, label="saddle block")

    @pytest.mark.parametrize("n, n_rhs", [(4, 3), (4, 5), (250, 249),
                                          (250, 251)])
    def test_rhs_length_checked(self, n, n_rhs):
        # on a small system and a large one; dpbtrs would solve the first
        # n rows of a longer right-hand side
        fac, _ = factor(sp.identity(n, format="csr"), label="small block")
        with pytest.raises(ValueError, match="small block"):
            fac.solve(np.ones(n_rhs))

    def test_empty_block(self):
        # the Dirichlet block of a 1D subdomain with no interior dofs
        fac, solve = factor(sp.csr_matrix((0, 0)))
        x = solve(np.zeros(0))
        assert x.shape == (0,)
        assert fac._band.shape == (1, 0)

    @pytest.mark.parametrize("n, kd, height", [
        (n, kd, height) for n in (300, 150) for kd, height in [
            (0, 0), (7, 7), (11, 11), (12, 17), (14, 17), (15, 17),
            (16, 17), (31, 33), (32, 33), (44, 49), (46, 49), (47, 49),
            (48, 49)]] + [(16, 15, 17)])
    def test_band_stored_at_a_fast_height(self, n, kd, height):
        # a random SPD matrix with a full band of half-width kd, at
        # n = 300 and 150; heights 0 or 12 to 15
        # (mod 16) from 12 up are stored at 1 (mod 16), above n - 1 for a
        # full 16 x 16 matrix, and the zero superdiagonals keep every
        # solve exact
        rng = np.random.default_rng(kd)
        A = np.diag(2.0 * kd + 1 + rng.uniform(0, 1, n))
        for d in range(1, kd + 1):
            v = rng.uniform(-1, 1, n - d)
            A += np.diag(v, d) + np.diag(v, -d)
        fac, solve = factor(A)
        assert fac._band.shape == (height + 1, n)
        b = rng.standard_normal((n, 5))
        for rhs in (b[:, 0], b):
            ref = np.linalg.solve(A, rhs)
            assert np.abs(solve(rhs) - ref).max() \
                <= 1e-13 * np.abs(ref).max()

    def test_band_is_factored_in_place(self):
        # the band is made in Fortran order, so dpbtrf factors it where it
        # lies; a band in C order is copied first, and the peak then holds
        # two bands (2.2 times the band's bytes here).  The bound leaves
        # room for the triplets the band is packed from
        import tracemalloc
        A, _ = build_step_operators(
            setup_problem(default_problem(nx=64)).global_ops)
        order = _band_order(A)
        tracemalloc.start()
        try:
            fac = Factorization(A, order=order)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * fac._band.nbytes

    @pytest.mark.parametrize("nx", [32, 64])
    def test_default_problem_bands_at_fast_heights(self, nx):
        # RCM gives these factors kd = 15 / 16 (nx = 32) and 31 / 32
        # (nx = 64), and the monolithic ones 46 and 94, where dpbtrs runs
        # slowest
        setup = setup_problem(default_problem(nx=nx))
        factors = [setup.mono._factor]
        for solver in setup.solvers:
            factors += [solver._dirichlet_block[1], solver._robin_factor(1.0)]
        for fac in factors:
            kd = fac._band.shape[0] - 1
            assert kd < 12 or kd % 16 not in (0, 12, 13, 14, 15), \
                (fac.label, kd)

    @pytest.mark.parametrize("nx", [4, 24])
    def test_one_step_solve_per_time_step(self, monkeypatch, nx):
        # every march, the field-filling ones and a streamed Robin solve
        spec = spec_2d(nx=nx, n_steps=5)
        mesh = build_mesh(spec)
        dec = decompose(mesh, spec)
        solver = SubdomainSolver(build_subdomain_operators(spec, mesh, dec, 1))
        mono = MonolithicSolver(build_global_operators(spec, mesh, dec))
        calls, steps = [], []
        solve = Factorization.solve

        def counted(self, rhs):
            calls.append(self.label)
            return solve(self, rhs)

        monkeypatch.setattr(Factorization, "solve", counted)
        solver.dirichlet_solve(loads=solver.ops.loads)
        assert calls == ["subdomain 1 Dirichlet block"] * 5
        calls.clear()
        solver.robin_solve(2.0, loads=solver.ops.loads)
        assert calls == ["subdomain 1 Robin matrix (s=2.0)"] * 5
        calls.clear()
        mono.solve()
        assert calls == ["monolithic step matrix"] * 5
        calls.clear()
        assert solver.robin_solve(2.0, loads=solver.ops.loads,
                                  step=lambda k, b, x: steps.append(k)) is None
        assert calls == ["subdomain 1 Robin matrix (s=2.0)"] * 5
        assert steps == list(range(5))

    @pytest.mark.parametrize("nx", [16, 32])
    def test_one_band_order_per_pattern(self, monkeypatch, nx):
        # a solver orders each step-matrix pattern once: the Robin
        # matrices at every s share the full pattern's order and one C
        # in it, the Dirichlet block has its own, and so does the
        # monolithic matrix.  Maps at three values of s and Robin solves
        # at each make three Robin factors and four Robin marches.  Every
        # C is sparse, in the band order of its pattern
        import rrlab.subsolve as subsolve
        from rrlab.interface import robin_trace_map
        orders, marched = [], []
        rcm, march = subsolve.reverse_cuthill_mckee, subsolve._march

        def ordered(A, **kwargs):
            orders.append(A.shape[0])
            return rcm(A, **kwargs)

        def counted(fac, C, rhs, step):
            marched.append((fac.label, C))
            return march(fac, C, rhs, step)

        monkeypatch.setattr(subsolve, "reverse_cuthill_mckee", ordered)
        monkeypatch.setattr(subsolve, "_march", counted)
        setup = setup_problem(default_problem(nx=nx))
        solver, mono = setup.solver_1, setup.mono
        ops = solver.ops
        assert orders == [mono.ops.n_dofs]
        lam = dual(np.ones((ops.grid.n_steps, ops.n_interface)))
        for s in (0.5, 1.0, 2.0):
            robin_trace_map(solver, s)
            solver.robin_solve(s, lam=lam)
        solver.dirichlet_solve(loads=ops.loads)
        mono.solve()
        assert orders == [mono.ops.n_dofs, ops.n_dofs, ops.n_interior]
        assert len(solver._robin) == 3 and len(marched) == 6
        full, inner = solver._full, solver._dirichlet_block[0]
        for label, C in marched:
            want = (mono._order.C if label == "monolithic step matrix"
                    else inner.C if "Dirichlet" in label else full.C)
            assert C is want, label
        nI = ops.n_interior
        for march_order, C in ((full, solver.C),
                               (inner, solver.C[:nI, :nI]),
                               (mono._order,
                                build_step_operators(mono.ops)[1])):
            p = march_order.order
            assert sp.issparse(march_order.C)
            np.testing.assert_array_equal(march_order.C.toarray(),
                                          C[p][:, p].toarray())

    @pytest.mark.parametrize("nx", [4, 24])
    def test_streamed_steps_are_in_band_order(self, nx):
        # a streamed Robin solve hands over x and b = A_R x in the band
        # order of the Robin factor; scattered back through that order,
        # its steps are the field the field-filling solve returns, which
        # is the plain per-step solve in the dofs' own order
        s = 0.7
        solver = make_solver(spec_2d(nx=nx, n_steps=5))
        ops = solver.ops
        order = solver._full.order
        assert np.any(order != np.arange(ops.n_dofs))
        A_R = build_step_operators(ops, s=s)[0][order][:, order]
        rng = np.random.default_rng(6)
        lam = dual(rng.standard_normal((3, 5, ops.n_interface)))
        u = solver.robin_solve(s, lam=lam, loads=ops.loads).values
        got = np.zeros_like(u)

        def step(k, b, x):
            assert np.abs(A_R @ x - b).max() <= 1e-13 * np.abs(b).max()
            got[:, k + 1, order] = x.T
        solver.robin_solve(s, lam=lam, loads=ops.loads, step=step)
        np.testing.assert_array_equal(got, u)
        assert_rel_close(u[1], loop_robin(solver, s, lam.values[1], ops.loads))

    @pytest.mark.parametrize("nx", [16, 32])
    def test_one_column_block_keeps_the_block_layout(self, nx):
        # a block of one column marches as any block does, (n, m) per
        # step with m = 1, and its field is the 2-D solve's bit for bit,
        # for Robin and Dirichlet data alike
        s = 0.7
        solver = setup_problem(default_problem(nx=nx)).solver_1
        ops = solver.ops
        rng = np.random.default_rng(8)
        data = rng.standard_normal((ops.grid.n_steps, ops.n_interface))
        robin = partial(solver.robin_solve, s, loads=ops.loads)
        dirichlet = partial(solver.dirichlet_solve, loads=ops.loads)
        shapes = set()
        robin(dual(data[None]),
              step=lambda k, b, x: shapes.add((b.shape, x.shape)))
        assert shapes == {((ops.n_dofs, 1), (ops.n_dofs, 1))}
        for solve, signal in ((robin, dual), (dirichlet, primal)):
            block = solve(signal(data[None])).values
            assert block.shape == (1, ops.grid.n_steps + 1, ops.n_dofs)
            np.testing.assert_array_equal(block[0], solve(signal(data)).values)

    @pytest.mark.parametrize("nx", [32, 64])
    def test_monolithic_loads_enter_the_band_order_step_by_step(self, nx):
        # a monolithic solve holds its field, the field's finiteness mask
        # and a few step vectors; the loads of all steps gathered into
        # the band order at once would add n_steps of them, u[1:].nbytes
        # (123 kB at nx = 32, 508 kB at nx = 64).  The bound sits halfway
        # between: the field and its mask plus half of that gather
        import tracemalloc
        mono = setup_problem(default_problem(nx=nx)).mono
        tracemalloc.start()
        try:
            u = mono.solve().values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= u.nbytes + u.size + u[1:].nbytes // 2


class TestSignalsAndFields:
    def test_field_requires_zero_initial_slice(self):
        with pytest.raises(ValueError, match="initial slice"):
            SpaceTimeField(np.ones((3, 2)))

    def test_field_rejects_nonfinite(self):
        vals = np.zeros((3, 2))
        vals[2, 1] = np.inf
        with pytest.raises(ValueError):
            SpaceTimeField(vals)

    def test_kind_correct_pairing_only(self):
        a = primal(np.ones((2, 3)))
        b = dual(2 * np.ones((2, 3)))
        assert a.pair(b) == pytest.approx(12.0)
        with pytest.raises(ValueError):
            a.pair(primal(np.ones((2, 3))))
        with pytest.raises(ValueError):
            _ = a + b

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            InterfaceSignal(np.ones((2, 2)), "flux")

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_signal_rejects_nonfinite(self, bad):
        vals = np.zeros((2, 3))
        vals[1, 2] = bad
        with pytest.raises(ValueError):
            InterfaceSignal(vals, "dual")


class TestDirichletSolve:
    def test_zero_data_zero_solution(self):
        solver = make_solver(spec_2d(source=None))
        u = solver.dirichlet_solve()
        assert not u.values.any()

    def test_trace_exact(self):
        solver = make_solver(spec_2d(n_steps=4))
        rng = np.random.default_rng(1)
        eta = primal(rng.standard_normal((4, solver.ops.n_interface)))
        u = solver.dirichlet_solve(eta=eta, loads=solver.ops.loads)
        np.testing.assert_array_equal(solver.trace(u).values, eta.values)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_matches_dense_space_time_solve(self, theta):
        # oracle: one dense solve of the full space-time block system
        spec = spec_2d(n_steps=3, theta=theta)
        solver = make_solver(spec)
        ops = solver.ops
        rng = np.random.default_rng(2)
        eta = primal(rng.standard_normal((3, ops.n_interface)))
        u = solver.dirichlet_solve(eta=eta, loads=ops.loads)
        dense = dense_space_time_solve(ops, trace_values=eta.values)
        np.testing.assert_allclose(u.values[1:], dense, rtol=1e-11, atol=1e-13)

    def test_linearity(self):
        spec = spec_2d(n_steps=4)
        solver = make_solver(spec)
        rng = np.random.default_rng(3)
        eta = primal(rng.standard_normal((4, solver.ops.n_interface)))
        both = solver.dirichlet_solve(eta=eta, loads=solver.ops.loads)
        only_eta = solver.dirichlet_solve(eta=eta)
        only_f = solver.dirichlet_solve(loads=solver.ops.loads)
        np.testing.assert_allclose(
            both.values, only_eta.values + only_f.values, atol=1e-12)

    def test_shape_mismatch_rejected(self):
        solver = make_solver(spec_2d(n_steps=4))
        with pytest.raises(ValueError, match="shape"):
            solver.dirichlet_solve(eta=primal(np.ones((3, 1))))


class TestRobinSolve:
    def test_zero_data_zero_solution(self):
        solver = make_solver(spec_2d(source=None))
        u = solver.robin_solve(1.0)
        assert not u.values.any()

    def test_requires_positive_s(self):
        solver = make_solver(spec_2d())
        with pytest.raises(ValueError):
            solver.robin_solve(-1.0)

    def test_1d_hand_case_closed_form(self):
        # one element per subdomain, no interior dofs: per-step scalar
        # solve u^k = (lam^k + u^{k-1}/6) / (s + 1/6 + 2 tau)
        tau = 0.25
        s = 0.7
        spec = ProblemSpec(dimension=1, nx=2, interface_x=0.5,
                           horizon=2 * tau, n_steps=2)
        solver = make_solver(spec)
        lam = dual(np.array([[1.0], [0.5]]))
        u = solver.robin_solve(s, lam=lam)
        denom = s + 1.0 / 6.0 + 2.0 * tau
        u1 = 1.0 / denom
        u2 = (0.5 + u1 / 6.0) / denom
        np.testing.assert_allclose(u.values[1:, 0], [u1, u2], rtol=1e-13)

    def test_matches_dense_robin_oracle(self):
        # dense oracle: weighted space-time matrix plus s-lumped blocks
        spec = spec_2d(n_steps=3)
        solver = make_solver(spec)
        ops = solver.ops
        s = 1.3
        rng = np.random.default_rng(4)
        lam = dual(rng.standard_normal((3, ops.n_interface)))
        u = solver.robin_solve(s, lam=lam, loads=ops.loads)

        W = dense_space_time_matrix(ops)
        ML = lumped_interface_mass(ops.M_gamma).toarray()
        block = np.zeros((ops.n_dofs, ops.n_dofs))
        block[ops.n_interior:, ops.n_interior:] = s * ML
        W_rob = W + np.kron(np.eye(3), block)
        rhs = (ops.grid.tau * ops.loads).ravel()
        rhs_g = np.zeros((3, ops.n_dofs))
        rhs_g[:, ops.n_interior:] = lam.values
        dense = np.linalg.solve(W_rob, rhs + rhs_g.ravel())
        np.testing.assert_allclose(u.values[1:].ravel(), dense,
                                   rtol=1e-11, atol=1e-13)

    def test_robin_identity_exact(self):
        # flux + s * ML_Gamma trace = lambda, an algebraic rearrangement
        spec = spec_2d(n_steps=4)
        solver = make_solver(spec)
        ops = solver.ops
        rng = np.random.default_rng(5)
        for s in (0.5, 2.0):
            lam = dual(rng.standard_normal((4, ops.n_interface)))
            u = solver.robin_solve(s, lam=lam, loads=ops.loads)
            sigma = solver.flux_recovery(u, loads=ops.loads)
            ML = lumped_interface_mass(ops.M_gamma).toarray()
            recon = sigma.values + s * (solver.trace(u).values @ ML.T)
            np.testing.assert_allclose(recon, lam.values, rtol=1e-11,
                                       atol=1e-12 * np.abs(lam.values).max())


class TestFluxRecovery:
    def test_zero_field_zero_flux(self):
        solver = make_solver(spec_2d(source=None))
        u = solver.dirichlet_solve()
        assert not solver.flux_recovery(u).values.any()

    def test_matches_dense_schur_residual(self):
        # sigma = weighted interface rows of (W u - f), computed densely
        spec = spec_2d(n_steps=3)
        solver = make_solver(spec)
        ops = solver.ops
        u = solver.dirichlet_solve(loads=ops.loads)
        sigma = solver.flux_recovery(u, loads=ops.loads)
        W = dense_space_time_matrix(ops)
        res = (W @ u.values[1:].ravel()
               - (ops.grid.tau * ops.loads).ravel()).reshape(3, ops.n_dofs)
        np.testing.assert_allclose(sigma.values, res[:, ops.n_interior:],
                                   rtol=1e-10, atol=1e-13)

    def test_steady_elliptic_limit(self):
        # huge tau: flux/tau approaches alpha * (linear slope)
        alpha = 2.0
        spec = ProblemSpec(dimension=1, nx=8, interface_x=0.5,
                           diffusion=alpha, horizon=2e8, n_steps=2)
        solver = make_solver(spec)
        c = 1.0
        eta = primal(np.full((2, 1), c))
        u = solver.dirichlet_solve(eta=eta)
        sigma = solver.flux_recovery(u)
        expected = alpha * c / 0.5
        np.testing.assert_allclose(sigma.values / spec.tau, expected, rtol=1e-6)

    def test_causality(self):
        # perturbing the load at step k leaves steps < k untouched
        spec = spec_2d(n_steps=5)
        solver = make_solver(spec)
        ops = solver.ops
        base = solver.dirichlet_solve(loads=ops.loads)
        bumped = ops.loads.copy()
        bumped[3] += 1.0
        pert = solver.dirichlet_solve(loads=bumped)
        np.testing.assert_array_equal(base.values[:4], pert.values[:4])
        assert np.abs(pert.values[4:] - base.values[4:]).max() > 0


def loop_dirichlet(solver, eta, loads):
    """Per-step reference: C u^{k-1} on all rows, interior rows solved."""
    nI = solver.ops.n_interior
    A, C = solver.A.toarray(), solver.C.toarray()
    u = np.zeros((loads.shape[0] + 1, solver.ops.n_dofs))
    for k in range(1, u.shape[0]):
        rhs = loads[k - 1] + C @ u[k - 1]
        u[k, nI:] = eta[k - 1]
        u[k, :nI] = np.linalg.solve(A[:nI, :nI],
                                    rhs[:nI] - A[:nI, nI:] @ eta[k - 1])
    return u


def loop_robin(solver, s, lam, loads):
    """Per-step reference: Robin data added to each step's interface rows."""
    A_rob = build_step_operators(solver.ops, s=s)[0].toarray()
    C = solver.C.toarray()
    u = np.zeros((loads.shape[0] + 1, solver.ops.n_dofs))
    for k in range(1, u.shape[0]):
        rhs = loads[k - 1] + C @ u[k - 1]
        rhs[solver.ops.n_interior:] += lam[k - 1] / solver.ops.grid.tau
        u[k] = np.linalg.solve(A_rob, rhs)
    return u


def loop_flux(solver, u, loads):
    """Per-step reference: tau * interface rows of A u^k - C u^{k-1} - f^k."""
    nI = solver.ops.n_interior
    A, C = solver.A.toarray(), solver.C.toarray()
    return np.array([
        solver.ops.grid.tau * (A @ u[k] - C @ u[k - 1] - loads[k - 1])[nI:]
        for k in range(1, u.shape[0])])


def assert_rel_close(actual, expected, rel=1e-13):
    assert np.linalg.norm(actual - expected) <= rel * np.linalg.norm(expected)


class TestTrajectoryProducts:
    """The trajectory-wide products agree with plain per-step loops."""

    @pytest.fixture(params=[(spec_1d, 1.0), (spec_1d, 0.5),
                            (spec_2d, 1.0), (spec_2d, 0.5)],
                    ids=["1d-theta1", "1d-theta0.5", "2d-theta1", "2d-theta0.5"])
    def case(self, request):
        make_spec, theta = request.param
        solver = make_solver(make_spec(nx=8, n_steps=5, theta=theta))
        rng = np.random.default_rng(11)
        data = rng.standard_normal((5, solver.ops.n_interface))
        return solver, data

    def test_dirichlet_solve(self, case):
        solver, eta = case
        loads = solver.ops.loads
        u = solver.dirichlet_solve(eta=primal(eta), loads=loads)
        assert_rel_close(u.values, loop_dirichlet(solver, eta, loads))

    def test_robin_solve(self, case):
        solver, lam = case
        loads = solver.ops.loads
        u = solver.robin_solve(0.7, lam=dual(lam), loads=loads)
        assert_rel_close(u.values, loop_robin(solver, 0.7, lam, loads))

    def test_flux_recovery(self, case):
        solver, eta = case
        loads = solver.ops.loads
        u = solver.dirichlet_solve(eta=primal(eta), loads=loads)
        sigma = solver.flux_recovery(u, loads=loads)
        assert_rel_close(sigma.values, loop_flux(solver, u.values, loads))


class TestNonFiniteTrajectory:
    """A breakdown anywhere in a time loop raises SolverFailure naming
    the factorization, as the CLI's exit code 3 relies on."""

    def nan_loads(self, shape):
        loads = np.zeros(shape)
        loads[2, 0] = np.nan
        return loads

    def test_dirichlet_solve(self):
        solver = make_solver(spec_2d(n_steps=4))
        loads = self.nan_loads(solver.ops.loads.shape)
        with pytest.raises(SolverFailure, match="subdomain 1 Dirichlet block"):
            solver.dirichlet_solve(loads=loads)

    def test_robin_solve(self):
        solver = make_solver(spec_2d(n_steps=4), i=2)
        loads = self.nan_loads(solver.ops.loads.shape)
        with pytest.raises(SolverFailure,
                           match=r"subdomain 2 Robin matrix \(s=1.5\)"):
            solver.robin_solve(1.5, loads=loads)

    def test_monolithic_solve(self):
        spec = spec_2d(n_steps=4)
        mesh = build_mesh(spec)
        ops = build_global_operators(spec, mesh, decompose(mesh, spec))
        loads = self.nan_loads(ops.loads.shape)
        with pytest.raises(SolverFailure, match="monolithic step matrix"):
            MonolithicSolver(ops).solve(loads)

    @pytest.mark.parametrize("nx", [4, 24])
    def test_monolithic_loads_of_another_shape_refused(self, nx):
        # the loads enter the band order by a gather, which would drop
        # the dofs of a wider array
        spec = spec_2d(nx=nx, n_steps=4)
        mesh = build_mesh(spec)
        ops = build_global_operators(spec, mesh, decompose(mesh, spec))
        with pytest.raises(ValueError, match="loads shape"):
            MonolithicSolver(ops).solve(np.zeros((4, ops.n_dofs + 1)))

    def test_one_scan_per_trajectory(self, monkeypatch):
        solver = make_solver(spec_2d(n_steps=4))
        shape = (5, solver.ops.n_dofs)
        scans = []
        isfinite = np.isfinite

        def counted(x, *args, **kwargs):
            if np.shape(x) == shape:
                scans.append(1)
            return isfinite(x, *args, **kwargs)

        monkeypatch.setattr(np, "isfinite", counted)
        solver.dirichlet_solve(loads=solver.ops.loads)
        solver.robin_solve(1.0, loads=solver.ops.loads)
        assert len(scans) == 2


class TestStabilityBound:
    def test_measured_constant_stable_under_refinement(self):
        # ||u||_X <= C (||f|| + ||eta||_Z); C drifts less than 2x per level
        from rrlab.fracnorm import trace_space_norm
        from rrlab.lab import field_error_norm

        def run(nx):
            spec = spec_2d(nx=nx, n_steps=8)
            mesh = build_mesh(spec)
            dec = decompose(mesh, spec)
            ops = build_subdomain_operators(spec, mesh, dec, 1)
            solver = SubdomainSolver(ops)
            ys = mesh.nodes[dec.interface, 1]
            times = np.arange(1, 9) / 8.0
            eta = primal(np.sin(np.pi * ys)[None, :]
                         * np.sin(np.pi * times)[:, None])
            u = solver.dirichlet_solve(eta=eta, loads=ops.loads)
            zero = SpaceTimeField(np.zeros_like(u.values))
            x_norm = field_error_norm(u, zero, ops)
            f_norm = np.sqrt(sum(ops.grid.tau * lk @ lk for lk in ops.loads))
            z_norm = trace_space_norm(eta, ops.M_gamma, tau=ops.grid.tau)
            return x_norm / (f_norm + z_norm)

        c8, c16 = run(8), run(16)
        assert np.isfinite(c8) and np.isfinite(c16) and c8 > 0
        assert 0.5 <= c16 / c8 <= 2.0
