"""Steklov-Poincare operator oracles, resolvent round trips, the
Peaceman-Rachford iteration, and its PDE-level Robin-Robin twin."""

import math

import numpy as np
import pytest

from rrlab.assembly import build_step_operators, lumped_interface_mass
from rrlab.dense import dense_schur_complement
import rrlab.interface
from rrlab.interface import (BlockToeplitz, IterationConfig, SteklovOperator,
                             assemble_dense, h_norm, init_robin_sweep,
                             interface_gram, interface_source, pr_step,
                             robin_resolvent, robin_sweep, robin_trace_map,
                             run_equivalence, run_pr, run_rr,
                             solve_robin_resolvent, spectral_analysis,
                             _probe_width)
from rrlab.lab import (default_problem, references_from_monolithic,
                       setup_problem)
from rrlab.mesh import ProblemSpec
from rrlab.subsolve import InterfaceSignal, SolverFailure, SubdomainSolver


def small_setup(nx=6, n_steps=4, dimension=2, source="cos", alpha=None,
                **kw):
    if alpha is None:
        def alpha2(x, y):
            return np.where(x < 0.5, 1.0, 3.0)

        def alpha1(x):
            return np.where(x < 0.5, 1.0, 3.0)
        alpha = alpha1 if dimension == 1 else alpha2
    if source == "cos":
        if dimension == 1:
            def source(x, t):
                return np.cos(2 * x) + np.sin(t)
        else:
            def source(x, y, t):
                return np.cos(2 * x + y) + np.sin(t)
    return setup_problem(ProblemSpec(
        dimension=dimension, nx=nx, ny=nx if dimension == 2 else 0,
        interface_x=0.5, diffusion=alpha, source=source,
        n_steps=n_steps, **kw))


def track_by_dirichlet_solves(monkeypatch):
    """Make runs choose to track without the solvers' SteklovForms: a
    homogeneous Dirichlet solve and a flux recovery per subdomain and
    block of block_width() iterates.  The probes, maps and iterates stay
    those of a run on the forms."""
    monkeypatch.setattr(rrlab.interface, "_tracks_on_forms",
                        lambda solvers: False)


@pytest.fixture(params=["forms", "dirichlet"])
def tracking(request, monkeypatch):
    """The realization of tracking: the SteklovForms of the Robin probe
    where both solvers keep them, or homogeneous Dirichlet solves and
    flux recoveries (track_by_dirichlet_solves)."""
    if request.param == "dirichlet":
        track_by_dirichlet_solves(monkeypatch)
    return request.param


def reference_fields(setup):
    """The monolithic solve restricted to each subdomain."""
    from rrlab.lab import restrict_field, solve_monolithic
    u_ref = solve_monolithic(setup)
    return [restrict_field(u_ref, setup.dec, i) for i in (1, 2)]


def count_solves(monkeypatch):
    """The names of the subdomain solves, flux recoveries and pr_step
    calls made from now on, in order, as a list that grows."""
    from rrlab.subsolve import SubdomainSolver
    calls = []

    def counting(owner, name):
        method = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return method(*args, **kwargs)
        return counted

    for name in ("robin_solve", "dirichlet_solve", "flux_recovery"):
        monkeypatch.setattr(SubdomainSolver, name,
                            counting(SubdomainSolver, name))
    monkeypatch.setattr(rrlab.interface, "pr_step",
                        counting(rrlab.interface, "pr_step"))
    return calls


def rand_signal(rng, n_steps, n_g, kind="primal"):
    return InterfaceSignal(rng.standard_normal((n_steps, n_g)), kind)


class TestSteklovOperator:
    def test_zero_maps_to_zero(self):
        setup = small_setup()
        S = SteklovOperator(setup.solver_1)
        eta = InterfaceSignal(np.zeros((4, setup.ops_1.n_interface)))
        assert not S.apply(eta).values.any()

    def test_linearity(self):
        setup = small_setup()
        S = SteklovOperator(setup.solver_2)
        rng = np.random.default_rng(0)
        a = rand_signal(rng, 4, setup.ops_2.n_interface)
        b = rand_signal(rng, 4, setup.ops_2.n_interface)
        combo = S.apply(InterfaceSignal(2.0 * a.values - 3.0 * b.values))
        np.testing.assert_allclose(
            combo.values, 2.0 * S.apply(a).values - 3.0 * S.apply(b).values,
            rtol=1e-11, atol=1e-13)

    @pytest.mark.parametrize("tau", [1.0, 0.25])
    def test_1d_hand_scalar(self, tau):
        # no interior dofs: S is the weighted (Gamma,Gamma) entry
        # tau * (m/tau + k) = 1/6 + 2 tau; at tau=1 this is 1/(6 tau)+2
        n_steps = 2
        setup = small_setup(nx=2, dimension=1, n_steps=n_steps,
                            alpha=1.0, source=None,
                            horizon=tau * n_steps)
        S = SteklovOperator(setup.solver_1)
        eta = InterfaceSignal(np.array([[1.0], [0.0]]))
        out = S.apply(eta)
        assert out.values[0, 0] == pytest.approx(1 / 6 + 2 * tau, rel=1e-13)
        assert out.values[1, 0] == pytest.approx(-1 / 6, rel=1e-13)

    def test_mirror_symmetric_problem(self):
        # with a symmetric coefficient the two dense operators coincide
        setup = small_setup(alpha=1.0)
        n_steps, n_g = 4, setup.ops_1.n_interface
        S1 = assemble_dense(SteklovOperator(setup.solver_1).apply, n_steps, n_g)
        S2 = assemble_dense(SteklovOperator(setup.solver_2).apply, n_steps, n_g)
        np.testing.assert_allclose(S1, S2, rtol=1e-11, atol=1e-13)

    def test_dense_equals_schur_complement(self):
        # oracle: direct block elimination of the weighted space-time matrix
        setup = small_setup(nx=8, n_steps=4, dimension=1)
        n_g = setup.ops_1.n_interface
        for solver, ops in ((setup.solver_1, setup.ops_1),
                            (setup.solver_2, setup.ops_2)):
            probed = assemble_dense(SteklovOperator(solver).apply, 4, n_g)
            schur = dense_schur_complement(ops)
            np.testing.assert_allclose(probed, schur, rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_dense_equals_column_by_column_probe(self, theta):
        # reference: a probe of every column of the desk problem, all in
        # one block, assuming no structure; the tiled step-1 probes
        # reproduce it bit for bit
        setup = setup_problem(default_problem(theta=theta))
        n_steps, n_g = setup.ops_1.grid.n_steps, setup.ops_1.n_interface
        n_cols = n_steps * n_g
        units = np.eye(n_cols).reshape(n_cols, n_steps, n_g)
        for solver in setup.solvers:
            apply = SteklovOperator(solver).apply
            full = apply(InterfaceSignal(units, "primal")).values
            np.testing.assert_array_equal(
                assemble_dense(apply, n_steps, n_g),
                full.reshape(n_cols, n_cols).T)

    @pytest.mark.parametrize("s", [0.1, 1.0, 10.0])
    def test_robin_trace_map_dense_equals_assemble_dense(self, s):
        # one probe block either way, so the two are equal bit for bit
        setup = setup_problem(default_problem())
        n_steps, n_g = setup.ops_1.grid.n_steps, setup.ops_1.n_interface
        for solver in setup.solvers:
            assert solver.block_width() >= n_g

            def resolvent(eta):
                return solve_robin_resolvent(
                    solver, InterfaceSignal(eta.values, "dual"), s)
            np.testing.assert_array_equal(
                robin_trace_map(solver, s).dense(),
                assemble_dense(resolvent, n_steps, n_g))

    def test_dense_lower_block_triangular(self):
        # causality: block (k, l) vanishes for l > k
        setup = small_setup(nx=4, n_steps=3)
        n_g = setup.ops_1.n_interface
        S1 = assemble_dense(SteklovOperator(setup.solver_1).apply, 3, n_g)
        for k in range(3):
            for l in range(k + 1, 3):
                blk = S1[k * n_g:(k + 1) * n_g, l * n_g:(l + 1) * n_g]
                assert np.abs(blk).max() < 1e-14


class TestRieszAndGram:
    def test_zero(self):
        setup = small_setup()
        eta = InterfaceSignal(np.zeros((4, setup.ops_1.n_interface)))
        assert not interface_gram(eta, setup.ops_1, 1.0).values.any()

    def test_constant_signal_measures_space_time_cylinder(self):
        # ||1||_H^2 = T * (|Gamma| - 4h/3): the two Dirichlet end nodes
        # of the interface line are eliminated, each taking its row and
        # column sums (h/2 each) less the doubly counted diagonal (h/3)
        setup = small_setup(nx=4, n_steps=5, horizon=2.0)
        ops = setup.ops_1
        ones = InterfaceSignal(np.ones((5, ops.n_interface)))
        expected = 2.0 * (1.0 - 4 * 0.25 / 3)
        assert h_norm(ones, ops.M_gamma, ops.grid.tau) ** 2 == pytest.approx(
            expected, rel=1e-13)

    def test_symmetry(self):
        setup = small_setup()
        rng = np.random.default_rng(1)
        n_g = setup.ops_1.n_interface
        a, b = rand_signal(rng, 4, n_g), rand_signal(rng, 4, n_g)
        ops = setup.ops_1
        assert interface_gram(a, ops, 2.0).pair(b) == pytest.approx(
            interface_gram(b, ops, 2.0).pair(a), rel=1e-12)

    def test_gram_uses_lumped_mass(self):
        setup = small_setup()
        rng = np.random.default_rng(2)
        eta = rand_signal(rng, 4, setup.ops_1.n_interface)
        ops = setup.ops_1
        out = interface_gram(eta, ops, 2.0)
        ML = lumped_interface_mass(ops.M_gamma).toarray()
        np.testing.assert_allclose(out.values, 2.0 * eta.values @ ML.T,
                                   rtol=1e-13)

    def test_dense_riesz_block_diagonal(self):
        # the dense J of spectral_analysis: block-diagonal s * ML_Gamma
        setup = small_setup(nx=4, n_steps=3)
        ops = setup.ops_1
        probed = assemble_dense(
            lambda e: interface_gram(e, ops, 2.0),
            3, ops.n_interface)
        ML = lumped_interface_mass(ops.M_gamma).toarray()
        np.testing.assert_allclose(probed, np.kron(np.eye(3), 2.0 * ML),
                                   atol=1e-14)


class TestInterfaceSource:
    def test_zero_loads(self):
        setup = small_setup(source=None)
        assert not interface_source(setup.solver_1).values.any()

    def test_1d_hand_case_against_dense(self):
        # chi = tau (f_Gamma - interface rows of W G f), dense elimination
        from rrlab.dense import dense_space_time_solve, dense_space_time_matrix
        setup = small_setup(nx=4, dimension=1, n_steps=3,
                            source=lambda x, t: np.ones_like(x))
        ops = setup.ops_1
        chi = interface_source(setup.solver_1)
        u0 = dense_space_time_solve(
            ops, trace_values=np.zeros((3, ops.n_interface)))
        W = dense_space_time_matrix(ops)
        res = (W @ u0.ravel() - (ops.grid.tau * ops.loads).ravel())
        res = res.reshape(3, ops.n_dofs)[:, ops.n_interior:]
        np.testing.assert_allclose(chi.values, -res, rtol=1e-11, atol=1e-14)

    def test_steklov_poincare_equation_at_monolithic_trace(self):
        # (S1 + S2) eta_ref = chi_1 + chi_2 for the monolithic trace
        setup = small_setup(nx=8, n_steps=6)
        refs = references_from_monolithic(setup)
        lhs = (SteklovOperator(setup.solver_1).apply(refs)
               + SteklovOperator(setup.solver_2).apply(refs))
        rhs = interface_source(setup.solver_1) + interface_source(setup.solver_2)
        scale = np.abs(rhs.values).max()
        np.testing.assert_allclose(lhs.values, rhs.values,
                                   rtol=0, atol=1e-11 * max(scale, 1.0))


class TestResolvent:
    def test_zero_rhs(self):
        setup = small_setup()
        rhs = InterfaceSignal(np.zeros((4, setup.ops_1.n_interface)), "dual")
        assert not solve_robin_resolvent(setup.solver_1, rhs, 1.0).values.any()

    def test_round_trip_identity(self):
        # (sJ + S) o resolvent = identity on 20 random right-hand sides
        setup = small_setup()
        rng = np.random.default_rng(3)
        ops = setup.ops_1
        S = SteklovOperator(setup.solver_1)
        for s in (0.1, 1.0, 10.0):
            for _ in range(20):
                rhs = rand_signal(rng, 4, ops.n_interface, "dual")
                eta = solve_robin_resolvent(setup.solver_1, rhs, s)
                recon = interface_gram(eta, ops, s) \
                    + S.apply(eta)
                err = np.abs(recon.values - rhs.values).max()
                assert err <= 1e-10 * np.abs(rhs.values).max()

    @pytest.mark.parametrize("tau", [1.0, 0.5])
    def test_1d_hand_formula(self, tau):
        # scalar case: eta^1 = lambda^1 / (s + 1/6 + 2 tau); later steps
        # couple lower-triangularly through the mass/tau term
        n_steps = 2
        s = 0.8
        setup = small_setup(nx=2, dimension=1, n_steps=n_steps, alpha=1.0,
                            source=None, horizon=tau * n_steps)
        lam = InterfaceSignal(np.array([[1.0], [0.0]]), "dual")
        eta = solve_robin_resolvent(setup.solver_1, lam, s)
        denom = s + 1 / 6 + 2 * tau
        eta1 = 1.0 / denom
        eta2 = (eta1 / 6) / denom
        np.testing.assert_allclose(eta.values[:, 0], [eta1, eta2], rtol=1e-13)


class TestMonotoneGap:
    def test_zero_at_reference(self):
        setup = small_setup()
        rng = np.random.default_rng(4)
        eta = rand_signal(rng, 4, setup.ops_1.n_interface)
        S = SteklovOperator(setup.solver_1)
        gap = (S.apply(eta) - S.apply(eta)).pair(eta - eta)
        assert gap == pytest.approx(0.0, abs=1e-14)

    def test_nonnegative_and_bounded_below_by_symmetric_part(self):
        # oracle: gap = d^T S d >= lambda_min(sym S) ||d||^2
        setup = small_setup(nx=4, n_steps=3)
        n_g = setup.ops_1.n_interface
        S = SteklovOperator(setup.solver_1)
        S_dense = assemble_dense(S.apply, 3, n_g)
        lam_min = np.linalg.eigvalsh(0.5 * (S_dense + S_dense.T)).min()
        assert lam_min > 0
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = rand_signal(rng, 3, n_g)
            b = rand_signal(rng, 3, n_g)
            gap = (S.apply(a) - S.apply(b)).pair(a - b)
            d = (a.values - b.values).ravel()
            assert gap >= lam_min * (d @ d) - 1e-12

    def test_quadratic_scaling(self):
        setup = small_setup()
        rng = np.random.default_rng(6)
        n_g = setup.ops_1.n_interface
        S = SteklovOperator(setup.solver_2)
        eta = rand_signal(rng, 4, n_g)
        delta = rand_signal(rng, 4, n_g)

        def gap(t):
            b = eta + t * delta
            return (S.apply(eta) - S.apply(b)).pair(eta - b)

        for t in (0.5, 2.0):
            assert gap(t) == pytest.approx(t * t * gap(1.0), rel=1e-10)


def robin_datum(solvers, chi, eta, s):
    """The pr_step state (sJ - S2) eta + chi of an interface trace eta."""
    s2 = solvers[1]
    return (interface_gram(eta, s2.ops, s)
            - SteklovOperator(s2).apply(eta) + chi)


def textbook_pr_step(solvers, chi, eta, s):
    """The Peaceman-Rachford step written out with four solves: each
    reflection applies S_i by a Dirichlet solve and a flux recovery."""
    s1, s2 = solvers
    half = solve_robin_resolvent(s1, robin_datum(solvers, chi, eta, s), s)
    rhs = (interface_gram(half, s1.ops, s)
           - SteklovOperator(s1).apply(half) + chi)
    return solve_robin_resolvent(s2, rhs, s)


def robin_solves(solvers, s):
    """The resolvents of a single step: one Robin solve per apply."""
    return [robin_resolvent(solver, s, 1) for solver in solvers]


class TestPeacemanRachford:
    def test_zero_sources_zero_iterates(self):
        setup = small_setup(source=None)
        chi = (interface_source(setup.solver_1)
               + interface_source(setup.solver_2))
        lam = chi
        for _ in range(3):
            eta, lam = pr_step(setup.solvers, chi, lam, 1.0,
                               robin_solves(setup.solvers, 1.0))
            assert not eta.values.any()

    def test_monolithic_trace_is_fixed_point(self):
        setup = small_setup(nx=8, n_steps=6)
        refs = references_from_monolithic(setup)
        chi = (interface_source(setup.solver_1)
               + interface_source(setup.solver_2))
        lam = robin_datum(setup.solvers, chi, refs, 1.0)
        out, _ = pr_step(setup.solvers, chi, lam, 1.0,
                         robin_solves(setup.solvers, 1.0))
        num = np.abs(out.values - refs.values).max()
        assert num <= 1e-10 * np.abs(refs.values).max()

    @staticmethod
    def _count_solves(monkeypatch):
        from rrlab.subsolve import SubdomainSolver
        calls = []

        def counting(name):
            method = getattr(SubdomainSolver, name)

            def counted(self, *args, **kwargs):
                calls.append(name)
                return method(self, *args, **kwargs)
            return counted

        for name in ("robin_solve", "dirichlet_solve", "flux_recovery"):
            monkeypatch.setattr(SubdomainSolver, name, counting(name))
        return calls

    def test_step_is_two_robin_solves(self, monkeypatch):
        # made for one apply, each resolvent of a step is one Robin solve
        setup = small_setup()
        chi = (interface_source(setup.solver_1)
               + interface_source(setup.solver_2))
        resolvents = robin_solves(setup.solvers, 1.0)
        calls = self._count_solves(monkeypatch)
        pr_step(setup.solvers, chi, chi, 1.0, resolvents)
        assert calls == ["robin_solve"] * 2

    def test_step_makes_no_subdomain_solve(self, monkeypatch):
        # through the probed resolvents a step is two applies and makes
        # no subdomain solve
        setup = small_setup()
        chi = (interface_source(setup.solver_1)
               + interface_source(setup.solver_2))
        maps = [robin_trace_map(solver, 1.0).apply for solver in setup.solvers]
        calls = self._count_solves(monkeypatch)
        lam = chi
        for _ in range(3):
            _, lam = pr_step(setup.solvers, chi, lam, 1.0, maps)
        assert calls == []

    def test_robin_resolvent_probes_only_where_it_pays(self, monkeypatch):
        # n_interface = 5 and n_steps = 4: probing pays from 6 applies
        # on.  On a solver probed at another s a map costs one inverse,
        # n_interface * n_steps / RESOLVENT_STEPS = 1 at 64 steps, so it
        # pays from 2 applies on.  Beyond RESOLVENT_STEPS steps an apply
        # costs more than the Robin solve it replaces, so it never pays
        rng = np.random.default_rng(3)
        for setup, probed, n_applies, made in (
                (small_setup(), False, 5, False),
                (small_setup(), False, 6, True),
                (small_setup(n_steps=64), True, 1, False),
                (small_setup(n_steps=64), True, 2, True),
                (small_setup(nx=2, dimension=1,
                             n_steps=rrlab.interface.RESOLVENT_STEPS + 1),
                 False, 10 ** 6, False)):
            solver = setup.solver_2
            if probed:
                robin_trace_map(solver, 1.0)
            n_steps, n_g = solver.ops.grid.n_steps, solver.ops.n_interface
            rhs = rng.standard_normal((2, n_steps, n_g))
            want = solve_robin_resolvent(solver, InterfaceSignal(rhs, "dual"),
                                         0.7).values
            resolvent = robin_resolvent(solver, 0.7, n_applies)
            assert (0.7 in solver.robin_maps) == made
            got = resolvent(rhs)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_robin_trace_map_is_probed_once_per_solver_and_s(self,
                                                             monkeypatch):
        # the second call returns the kept map and makes no Robin solve;
        # another s is a map of its own, made from the column of S_i that
        # the first probe kept, with no Robin solve; another solver is
        # probed on its own
        from rrlab.subsolve import SubdomainSolver
        robin_solve, solves = SubdomainSolver.robin_solve, []

        def counted(self, *args, **kwargs):
            solves.append(self.ops.index)
            return robin_solve(self, *args, **kwargs)

        monkeypatch.setattr(SubdomainSolver, "robin_solve", counted)
        setup = small_setup()
        solver = setup.solver_2
        first = robin_trace_map(solver, 0.7)
        assert solves == [2]
        assert robin_trace_map(solver, 0.7) is first
        assert solves == [2]
        second = robin_trace_map(solver, 1.0)
        assert second is not first
        assert solves == [2]
        rhs = np.random.default_rng(9).standard_normal(first.shape[:2])
        want = robin_solve(solver, 1.0, lam=InterfaceSignal(rhs, "dual"))
        assert np.linalg.norm(second.apply(rhs) - solver.trace(want).values) \
            <= 1e-12 * np.linalg.norm(rhs)
        assert robin_trace_map(setup.solver_1, 0.7) is not first
        assert solves == [2, 1]

    @pytest.mark.parametrize("probed", [False, True],
                             ids=["robin-solves", "probed-maps"])
    @pytest.mark.parametrize("dimension", [1, 2])
    @pytest.mark.parametrize("theta", [1.0, 0.5])
    def test_matches_textbook_four_solve_step(self, dimension, theta, probed):
        setup = small_setup(nx=8, n_steps=6, dimension=dimension, theta=theta)
        ops = setup.ops_1
        chi = (interface_source(setup.solver_1)
               + interface_source(setup.solver_2))
        resolvents = ([robin_trace_map(solver, 0.7).apply
                       for solver in setup.solvers] if probed
                      else robin_solves(setup.solvers, 0.7))
        eta_ref = InterfaceSignal(np.zeros((6, ops.n_interface)))
        lam = chi
        for _ in range(20):
            eta_ref = textbook_pr_step(setup.solvers, chi, eta_ref, 0.7)
            eta, lam = pr_step(setup.solvers, chi, lam, 0.7, resolvents)
            num = np.abs(eta.values - eta_ref.values).max()
            assert num <= 1e-12 * np.abs(eta_ref.values).max()

    def test_run_pr_converges_and_satisfies_speq(self):
        setup = small_setup(nx=8, n_steps=6)
        refs = references_from_monolithic(setup)
        cfg = IterationConfig(s=1.0, tol=1e-11, max_iter=200)
        eta, report = run_pr(setup.solvers, cfg, references=refs)
        assert report.status == "converged"
        assert report.increments[-1] <= cfg.tol
        # fixed-point residual within 10x the stopping tolerance
        assert report.residuals[-1] <= 10 * cfg.tol
        # gaps vanish at termination and stay nonnegative
        for g1, g2 in zip(report.gaps_1, report.gaps_2):
            assert g1 >= -1e-12 and g2 >= -1e-12
        assert report.gaps_1[-1] <= 1e-10 and report.gaps_2[-1] <= 1e-10

    def test_spectral_prediction(self):
        # homogeneous iteration decays like the spectral radius
        setup = small_setup(nx=6, n_steps=4, source=None)
        ops = setup.ops_1
        n_g = ops.n_interface
        S1 = assemble_dense(SteklovOperator(setup.solver_1).apply, 4, n_g)
        S2 = assemble_dense(SteklovOperator(setup.solver_2).apply, 4, n_g)
        rho = spectral_analysis(S1, S2, ops.M_gamma, ops.grid.tau, [1.0])[0].rho
        chi = InterfaceSignal(np.zeros((4, n_g)), "dual")
        rng = np.random.default_rng(7)
        eta = rand_signal(rng, 4, n_g)
        lam = robin_datum(setup.solvers, chi, eta, 1.0)
        norms = []
        resolvents = robin_solves(setup.solvers, 1.0)
        for _ in range(30):
            eta, lam = pr_step(setup.solvers, chi, lam, 1.0, resolvents)
            norms.append(h_norm(eta, ops.M_gamma, ops.grid.tau))
        observed = (norms[-1] / norms[-11]) ** 0.1
        assert observed == pytest.approx(rho, rel=0.15)

    @pytest.mark.parametrize("run, tracked, n_calls", [
        (run_pr, True, 2), (run_rr, True, 0), (run_pr, False, 2),
        (run_rr, False, 0),
        (lambda solvers, cfg, references: run_equivalence(solvers, cfg.s, 2),
         False, 2)],
        ids=["run_pr", "run_rr", "run_pr-untracked", "run_rr-untracked",
             "run_equivalence"])
    def test_sources_computed_once_per_run(self, run, tracked, n_calls,
                                           monkeypatch):
        # chi_1 and chi_2 cost a Dirichlet solve and a flux recovery each;
        # only the Peaceman-Rachford iterates read them: chi cancels from
        # every tracked quantity, and the Robin sweep does not read it
        calls = []

        def counted(solver):
            calls.append(solver.ops.index)
            return interface_source(solver)

        monkeypatch.setattr(rrlab.interface, "interface_source", counted)
        setup = small_setup()
        refs = references_from_monolithic(setup) if tracked else None
        run(setup.solvers, IterationConfig(max_iter=2), references=refs)
        assert sorted(calls) == [1, 2][:n_calls]

    @pytest.mark.parametrize("max_iter", [5, 12])
    def test_tracked_iteration_solve_counts(self, max_iter, tracking,
                                            monkeypatch):
        # n_interface = 5: probing pays for 12 applies, not for 5.  With
        # probed maps run_pr probes both resolvents before the first
        # pr_step, by ceil(n_interface / _probe_width()) Robin solves
        # each, and an iteration makes no subdomain solve.  Else an
        # iteration is two Robin solves, and each block's residuals one
        # more.  Tracking reads the probe's forms, with no subdomain
        # solve, where both solvers keep them; otherwise each block costs
        # a homogeneous Dirichlet solve and a flux recovery per subdomain.
        import rrlab.subsolve
        calls = count_solves(monkeypatch)
        for width in (1, 2, 4, 100):
            setup = small_setup()
            ops = setup.ops_1
            assert ops.n_interface == 5
            monkeypatch.setattr(rrlab.subsolve, "BLOCK_VALUES",
                                width * (ops.grid.n_steps + 1) * ops.n_dofs)
            assert [s.block_width() for s in setup.solvers] == [width] * 2
            refs = references_from_monolithic(setup)
            calls.clear()
            run_pr(setup.solvers, IterationConfig(tol=0.0, max_iter=max_iter),
                   references=refs)
            first = calls.index("pr_step")
            before, after = calls[:first], calls[first:]
            n_blocks = -(-max_iter // width)
            assert after.count("pr_step") == max_iter
            if max_iter == 12:
                assert before.count("robin_solve") == 2 * -(
                    -ops.n_interface // _probe_width(setup.solver_1))
                assert after.count("robin_solve") == 0
                for name in ("dirichlet_solve", "flux_recovery"):
                    assert after.count(name) == \
                        (2 * n_blocks if tracking == "dirichlet" else 0)
            else:
                assert before.count("robin_solve") == 0
                assert after.count("robin_solve") == 2 * max_iter + n_blocks
                assert after.count("dirichlet_solve") == 2 * n_blocks
                assert after.count("flux_recovery") == 2 * n_blocks
                assert not any(s.robin_maps or s.forms for s in setup.solvers)

    @pytest.mark.parametrize("nx, forms_width", [(16, 17), (32, 8), (64, 4)])
    def test_tracking_block_width(self, nx, forms_width, tracking,
                                  monkeypatch):
        # on the forms a block holds interface values only, n_steps^2 *
        # n_interface per iterate, and BLOCK_VALUES of them make a block;
        # a block of Dirichlet solves holds fields and keeps
        # block_width() iterates (32 / 7 / 1).  Every block but the
        # last has the full width; the last holds the iterates left over,
        # so each iterate is tracked once.  At tol = 0 a run makes all
        # max_iter iterates: 70, the fewest applies for which a first map
        # pays at nx = 64 (_map_pays), but 38 at nx = 16, whose iteration
        # reaches an exact fixed point (an increment of 0.0) at iteration
        # 39.  38 still gives one full block and a remainder there
        max_iter = 38 if nx == 16 else 70
        setup = setup_problem(default_problem(nx=nx))
        refs = references_from_monolithic(setup)
        widths = []
        track = rrlab.interface._track_block

        def counted(solvers, resolvent, eta_ref, pending, on_forms):
            widths.append(len(pending))
            return track(solvers, resolvent, eta_ref, pending, on_forms)

        monkeypatch.setattr(rrlab.interface, "_track_block", counted)
        _, report = run_pr(setup.solvers,
                           IterationConfig(tol=0.0, max_iter=max_iter),
                           references=refs)
        assert all(s.forms is not None for s in setup.solvers)
        want = (forms_width if tracking == "forms" else
                setup.solver_1.block_width())
        assert report.n_iterations == max_iter
        assert report.status == "max_iter"
        full, rest = divmod(max_iter, want)
        assert widths == [want] * full + ([rest] if rest else [])
        assert sum(widths) == max_iter
        assert len(report.errors_1) == len(report.residuals) == max_iter

    def test_tracked_run_beyond_resolvent_steps_keeps_no_map(self,
                                                             monkeypatch):
        # at more than RESOLVENT_STEPS steps a map never pays, whatever
        # max_iter is: a tracked run makes no probe and keeps no column
        # of R or S; an iteration is two Robin solves, and each block of
        # iterates a Dirichlet solve and a flux recovery per subdomain
        # and one Robin solve for the residuals; the sources chi_1 and
        # chi_2 are one flux recovery each
        import tracemalloc
        setup = small_setup(nx=6, n_steps=rrlab.interface.RESOLVENT_STEPS + 1)
        refs = references_from_monolithic(setup)
        cfg = IterationConfig(s=0.7, tol=1e-8, max_iter=10 ** 6)
        for solver in setup.solvers:     # kept by any run
            solver._robin_factor(cfg.s)
            solver._dirichlet_factor()
            solver.source_field()
        calls = count_solves(monkeypatch)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            eta, report = run_pr(setup.solvers, cfg, references=refs)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert report.status == "converged"
        assert not any(s.robin_maps or s.forms for s in setup.solvers)
        ops = setup.ops_1
        column = 8 * ops.grid.n_steps * ops.n_interface ** 2
        assert kept < column
        n_blocks = -(-report.n_iterations // setup.solver_1.block_width())
        assert calls.count("robin_solve") == \
            2 * report.n_iterations + n_blocks
        assert calls.count("dirichlet_solve") == 2 * n_blocks
        assert calls.count("flux_recovery") == 2 * n_blocks + 2

    @pytest.mark.parametrize("width", [1, 3, 100])
    @pytest.mark.parametrize("tol, max_iter", [(1e-6, 60), (0.0, 7), (0.0, 4)],
                             ids=["stops-on-tol", "reaches-max-iter",
                                  "robin-solves"])
    @pytest.mark.parametrize("run", [run_pr, run_rr])
    def test_block_tracking_matches_per_iteration_tracking(
            self, run, tol, max_iter, width, tracking, monkeypatch):
        # reference: the tracking of each iterate on its own, with a
        # loaded Dirichlet solve and a flux recovery per subdomain and a
        # Robin solve for the residual; width 3 leaves a short last
        # block, width 100 one block.  The untracked run is made on
        # fresh solvers, so that it realizes its resolvents as a first
        # run does: by Robin solves at max_iter 4, by maps otherwise
        # (the Robin sweep makes no resolvent)
        import rrlab.subsolve
        from rrlab.lab import field_error_norm
        from rrlab.subsolve import SubdomainSolver
        setup = small_setup(nx=6, n_steps=4)
        refs = references_from_monolithic(setup)
        u1_ref, u2_ref = reference_fields(setup)
        s1, s2 = setup.solvers
        monkeypatch.setattr(rrlab.subsolve, "BLOCK_VALUES",
                            width * (s1.ops.grid.n_steps + 1) * s1.ops.n_dofs)
        assert s1.block_width() == width
        cfg = IterationConfig(s=0.7, tol=tol, max_iter=max_iter)
        _, report = run(setup.solvers, cfg, references=refs)
        assert bool(s2.robin_maps) == (max_iter > 4)
        assert report.status == ("converged" if tol else "max_iter")
        assert 1 < report.n_iterations <= max_iter
        if width == 3:
            assert report.n_iterations % width      # a short last block

        chi_1, chi_2 = interface_source(s1), interface_source(s2)
        S1_ref = s1.flux_recovery(u1_ref, s1.ops.loads) + chi_1
        S2_ref = s2.flux_recovery(u2_ref, s2.ops.loads) + chi_2
        tau, Mg = s1.ops.grid.tau, s1.ops.M_gamma
        want = {"errors_1": [], "errors_2": [], "gaps_1": [], "gaps_2": [],
                "residuals": []}
        fresh = [SubdomainSolver(solver.ops) for solver in setup.solvers]
        _, untracked = run(fresh, cfg)
        assert bool(fresh[1].robin_maps) == (run is run_pr and max_iter > 4)
        eta = None
        for n in range(1, report.n_iterations + 1):
            eta, _ = run(fresh, IterationConfig(s=0.7, tol=0.0, max_iter=n))
            u1 = s1.dirichlet_solve(eta=eta, loads=s1.ops.loads)
            u2 = s2.dirichlet_solve(eta=eta, loads=s2.ops.loads)
            S1_eta = s1.flux_recovery(u1, s1.ops.loads) + chi_1
            S2_eta = s2.flux_recovery(u2, s2.ops.loads) + chi_2
            diff = refs - eta
            want["errors_1"].append(field_error_norm(u1, u1_ref, s1.ops))
            want["errors_2"].append(field_error_norm(u2, u2_ref, s2.ops))
            want["gaps_1"].append((S1_ref - S1_eta).pair(diff))
            want["gaps_2"].append((S2_ref - S2_eta).pair(diff))
            precond = solve_robin_resolvent(
                s2, (S1_eta + S2_eta) - (chi_1 + chi_2), cfg.s)
            want["residuals"].append(h_norm(precond, Mg, tau))
        assert report.increments == untracked.increments
        for name, values in want.items():
            got = np.array(getattr(report, name))
            assert got.shape == (report.n_iterations,)
            np.testing.assert_allclose(got, values, rtol=0,
                                       atol=1e-12 * np.abs(values).max())

    @pytest.mark.parametrize("run", [run_pr, run_rr])
    def test_tracking_matches_dirichlet_solves(self, run, tracking):
        # the subdomain-2 error and gap of the report, tracked in blocks
        # of iterates as forms of eta_ref - eta, equal those of a loaded
        # Dirichlet solve at the iterate
        from rrlab.lab import field_error_norm
        setup = small_setup(nx=8, n_steps=5)
        refs = references_from_monolithic(setup)
        _, u2_ref = reference_fields(setup)
        s2, ops = setup.solver_2, setup.ops_2
        chi_2 = interface_source(s2)
        S2_ref = s2.flux_recovery(u2_ref, ops.loads) + chi_2
        for n in (1, 2, 4, 12):
            eta, report = run(setup.solvers,
                              IterationConfig(s=0.7, tol=0.0, max_iter=n),
                              references=refs)
            u2 = s2.dirichlet_solve(eta=eta, loads=ops.loads)
            S2_eta = s2.flux_recovery(u2, ops.loads) + chi_2
            err = field_error_norm(u2, u2_ref, ops)
            gap = (S2_ref - S2_eta).pair(refs - eta)
            assert report.errors_2[-1] == pytest.approx(err, rel=1e-10)
            assert report.gaps_2[-1] == pytest.approx(gap, rel=1e-9)

    def test_one_step_drawn_per_iteration(self, monkeypatch):
        # the shared driver stops drawing iterates at max_iter
        import rrlab.interface
        calls = []

        def counting(name):
            step = getattr(rrlab.interface, name)

            def counted(*args):
                calls.append(name)
                return step(*args)
            return counted

        for name in ("pr_step", "robin_sweep"):
            monkeypatch.setattr(rrlab.interface, name, counting(name))
        setup = small_setup()
        cfg = IterationConfig(tol=0.0, max_iter=3)
        assert run_pr(setup.solvers, cfg)[1].n_iterations == 3
        assert run_rr(setup.solvers, cfg)[1].n_iterations == 3
        run_equivalence(setup.solvers, 1.0, 2)
        assert calls == ["pr_step"] * 3 + ["robin_sweep"] * 3 \
            + ["pr_step", "robin_sweep"] * 2

    def test_iteration_config_validation(self):
        for bad in ({"s": 0.0}, {"s": np.nan}, {"s": np.inf},
                    {"tol": -1.0}, {"tol": np.nan}, {"max_iter": 0}):
            with pytest.raises(ValueError):
                IterationConfig(**bad)

    @pytest.mark.parametrize("bad", [2.5, 3.0, True, "3", None])
    def test_iteration_config_refuses_a_non_integral_max_iter(self, bad):
        # refused when the config is made, not by range() inside the
        # run; True would otherwise run one iteration
        with pytest.raises(ValueError, match="max_iter"):
            IterationConfig(max_iter=bad)
        assert IterationConfig(max_iter=np.int64(3)).max_iter == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_robin_parameter_keeps_nothing(self, bad):
        # a non-finite s is refused before a solver keeps a Robin factor,
        # a map or forms: on a fresh solver (the probe path of
        # robin_trace_map) and on a probed one (its inverse path).  The
        # solvers then still run at s = 1
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        fresh, probed = setup.solvers
        robin_trace_map(probed, 0.7)
        for call in (lambda: fresh.robin_solve(bad),
                     lambda: robin_trace_map(fresh, bad),
                     lambda: robin_resolvent(fresh, bad, 10 ** 6),
                     lambda: robin_trace_map(probed, bad)):
            with pytest.raises(ValueError, match="finite"):
                call()
        assert fresh.forms is None and not fresh.robin_maps
        assert not fresh._robin
        assert list(probed.robin_maps) == [0.7]
        _, report = run_pr(setup.solvers, IterationConfig(s=1.0),
                           references=references_from_monolithic(setup))
        assert report.status == "converged"

    def test_overflowing_robin_parameter_on_a_probed_solver(self):
        # a finite s whose s J overflows is refused by every reader of
        # s J as it is by a fresh solver's Robin factor: a later-s map of
        # a probed solver, which would be built from an infinite shift,
        # and a run whose resolvents are such maps, which would fail in
        # pr_step on a non-finite signal.  Neither keeps a map
        setup = setup_problem(default_problem(nx=8, n_steps=4))
        for solver in setup.solvers:
            robin_trace_map(solver, 1.0)
        with pytest.raises(SolverFailure,
                           match=r"subdomain 1 s J \(s=1e\+308\) overflows"):
            robin_trace_map(setup.solver_1, 1e308)
        with pytest.raises(SolverFailure, match="overflows"):
            run_pr(setup.solvers, IterationConfig(s=1e308))
        assert [list(solver.robin_maps) for solver in setup.solvers] == [
            [1.0], [1.0]]


class TestRobinRobinSweep:
    def test_zero_sources_zero_iterates(self):
        setup = small_setup(source=None)
        state = init_robin_sweep(setup.solvers, 1.0)
        for _ in range(3):
            state = robin_sweep(setup.solvers, state, 1.0)
            assert not state.u1.values.any()
            assert not state.u2.values.any()

    def test_pde_interface_equivalence(self):
        # the central structural identity: both realizations produce the
        # same interface iterates to roundoff, at every iteration
        setup = small_setup(nx=8, n_steps=6)
        for s in (0.5, 1.0):
            disc = run_equivalence(setup.solvers, s, 12)
            assert max(disc) <= 1e-10

    def test_degenerate_single_subdomain_rejected(self):
        with pytest.raises(ValueError):
            ProblemSpec(dimension=2, nx=4, ny=4, interface_x=1.0)


class TestBlockToeplitz:
    @pytest.mark.parametrize("n_steps, batch, split", [
        (5, (), False), (40, (3,), False), (700, (2,), True),
        (147, (), False), (148, (), True), (101, (7,), True),
        (41, (4, 10), True)])
    def test_apply_equals_dense_product(self, n_steps, batch, split):
        # at 700 steps the product runs in several chunks of steps; at
        # 147 and 148 it lies just below and just above the size at
        # which apply splits the steps in halves, and at an odd number
        # of steps those halves differ by one step
        assert split == (math.prod(batch) * n_steps ** 2 * 4 * 3 >=
                         rrlab.interface.SPLIT_APPLY_VALUES)
        rng = np.random.default_rng(4)
        op = BlockToeplitz(rng.standard_normal((n_steps, 3, 4)))
        x = rng.standard_normal(batch + (n_steps, 4))
        want = (x.reshape(batch + (-1,)) @ op.dense().T).reshape(
            batch + (n_steps, 3))
        np.testing.assert_allclose(op.apply(x), want, rtol=0,
                                   atol=1e-13 * np.abs(want).max())

    def test_apply_memory_is_linear_in_steps(self):
        # a product of all n_steps windows at once would hold
        # n_steps^2 * n_in values (100 MB here); a chunk holds at most
        # APPLY_WINDOW_VALUES (2 MB), and its step indices a fifth of that
        import tracemalloc
        n_steps, n_in = 1600, 5
        op = BlockToeplitz(np.ones((n_steps, 1, n_in)))
        x = np.ones((n_steps, n_in))
        tracemalloc.start()
        try:
            y = op.apply(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * rrlab.interface.APPLY_WINDOW_VALUES
        np.testing.assert_array_equal(y[:, 0], n_in * np.arange(1, n_steps + 1))


class TestSteklovForms:
    @pytest.mark.parametrize("nx", [16, 64])
    def test_kept_memory_is_bounded(self, nx):
        # what a first probe leaves on the solver: the columns of R and S
        # and the 2 n_steps - 1 Hankel blocks of the X-norm form, at
        # every size; no probe field is kept.  The blocks are a view of
        # the probe's 2 n_steps lags, so one lag more is kept
        import tracemalloc
        setup = setup_problem(default_problem(nx=nx))
        solver = setup.solver_1
        n_steps, n_g = solver.ops.grid.n_steps, solver.ops.n_interface
        solver._robin_factor(1.0)       # kept either way
        tracemalloc.start()
        try:
            robin_trace_map(solver, 1.0)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        columns = 2 * 8 * n_steps * n_g * n_g
        hankel = 8 * (2 * n_steps - 1) * n_g * n_g
        slack = 8 * n_g * n_g + 2 ** 15
        assert solver.forms.hankel.shape == (n_g, (2 * n_steps - 1) * n_g)
        assert kept <= columns + hankel + slack
        assert slack < hankel

    def test_build_peak_memory_is_bounded(self):
        # while the first probe at nx = 64 runs and makes its forms it
        # holds, beside what it keeps and the steps of one streamed block
        # of Robin solves (less than the one-column field ``block``), at
        # most C times the last-step field of each datum.  Keeping the
        # probe's fields, or the lags of R and the Hankel blocks as
        # separate arrays, holds one array of last-step fields more
        import tracemalloc
        setup = setup_problem(default_problem(nx=64))
        solver = setup.solver_1
        ops = solver.ops
        solver._robin_factor(1.0)       # kept either way
        tracemalloc.start()
        try:
            robin_trace_map(solver, 1.0)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n_steps, n_g = ops.grid.n_steps, ops.n_interface
        last = 8 * n_g * ops.n_dofs
        block = 8 * solver.block_width() * (n_steps + 1) * ops.n_dofs
        slack = 2 ** 17
        assert peak <= last + kept + block + slack
        assert block + slack < last

    @pytest.mark.parametrize("theta", [1.0, 0.5])
    @pytest.mark.parametrize("n_steps", [3, 5])
    def test_hankel_blocks_match_their_definition(self, n_steps, theta,
                                                  monkeypatch):
        # the fields F_a (step a + 1) of one Robin solve of all unit data
        # at step 1 give lag a + b of the probed map twice over:
        # R_{a+b} = tau F_a^T A_R F_b and R_{a+b+1} = tau F_a^T C F_b.
        # Every pair must agree on its lag, and the Hankel blocks of a
        # probe streamed in blocks of any width (one datum, two, all)
        # must be q(r) = alpha R_r + beta R_{r+1}, side by side; an odd
        # n_steps leaves the blocks' own lags N .. 2N - 1 to both parities
        # of the pairing
        s = 0.7
        setup = small_setup(nx=6, n_steps=n_steps, theta=theta)
        for ops in (setup.ops_1, setup.ops_2):
            grid, n_g, n = ops.grid, ops.n_interface, ops.n_dofs
            A_R, C = build_step_operators(ops, s=s)
            units = np.zeros((n_g, n_steps, n_g))
            units[:, 0] = np.eye(n_g)
            F = SubdomainSolver(ops).robin_solve(
                s, lam=InterfaceSignal(units, "dual")).values[:, 1:]
            blocks = [[] for _ in range(2 * n_steps)]
            for M, shift in ((A_R, 0), (C, 1)):
                MF = (M @ F.reshape(-1, n).T).T.reshape(F.shape)
                pairs = grid.tau * np.einsum("gax,hbx->abgh", F, MF)
                for a in range(n_steps):
                    for b in range(n_steps):
                        blocks[a + b + shift].append(pairs[a, b])
            R = [lag[0] for lag in blocks]
            for lag, want in zip(blocks, R):
                for got in lag:
                    np.testing.assert_allclose(
                        got, want, rtol=0, atol=1e-13 * np.abs(want).max())
            alpha = 1.0 + grid.tau * (1.0 - grid.theta)
            beta = grid.tau * grid.theta - 1.0
            want = np.hstack([alpha * R[r] + beta * R[r + 1]
                              for r in range(2 * n_steps - 1)])
            calls = count_solves(monkeypatch)
            for width in (1, 2, n_g):
                monkeypatch.setattr(rrlab.interface, "_probe_width",
                                    lambda solver, width=width: width)
                solver = SubdomainSolver(ops)
                del calls[:]
                robin_trace_map(solver, s)
                assert calls == ["robin_solve"] * -(-n_g // width)
                np.testing.assert_allclose(
                    solver.forms.hankel, want, rtol=0,
                    atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("fail_at", [1, 6, 12])
    def test_non_finite_step_of_a_streamed_probe_fails(self, fail_at,
                                                       monkeypatch):
        # a streamed probe keeps no field, so no field check sees its
        # steps: a non-finite step solve (the first, one inside, the
        # last of 3 blocks of 4 steps) propagates into the lags, which
        # the probe checks once, naming the Robin matrix; the solver
        # keeps neither map nor forms
        from rrlab.subsolve import Factorization, SolverFailure
        setup = small_setup(nx=6, n_steps=4)
        solver = setup.solver_1
        assert solver.ops.n_interface == 5
        monkeypatch.setattr(rrlab.interface, "_probe_width",
                            lambda solver: 2)
        solve, calls = Factorization.solve, []

        def failing(fac, rhs):
            calls.append(fac.label)
            x = solve(fac, rhs)
            return np.full_like(x, np.nan) if len(calls) == fail_at else x
        monkeypatch.setattr(Factorization, "solve", failing)
        with pytest.raises(SolverFailure,
                           match=r"subdomain 1 Robin matrix \(s=0\.7\)"):
            robin_trace_map(solver, 0.7)
        assert len(calls) == 12
        assert solver.forms is None and not solver.robin_maps

    def test_streamed_probe_reads_no_unset_lag(self, monkeypatch):
        # the lags of a probe in several blocks are set in parts, and
        # symmetry fills those of a later block's data against an
        # earlier block; with every np.empty array born non-finite, the
        # probe must still pass its check and make the same map and forms
        setup = small_setup(nx=6, n_steps=4)
        monkeypatch.setattr(rrlab.interface, "_probe_width",
                            lambda solver: 2)
        want = SubdomainSolver(setup.ops_1)
        robin_trace_map(want, 0.7)
        empty = np.empty

        def unset(*args, **kwargs):
            a = empty(*args, **kwargs)
            if a.dtype.kind in "fc":
                a.fill(np.nan)
            elif a.dtype.kind in "iu":
                a.fill(-1)
            return a
        monkeypatch.setattr(np, "empty", unset)
        solver = SubdomainSolver(setup.ops_1)
        assert solver.ops.n_interface == 5
        robin_trace_map(solver, 0.7)
        monkeypatch.undo()
        np.testing.assert_array_equal(solver.forms.hankel, want.forms.hankel)
        np.testing.assert_array_equal(solver.robin_maps[0.7].first,
                                      want.robin_maps[0.7].first)

    @pytest.mark.parametrize("nx", [32, 64])
    def test_tracked_run_makes_no_solve_after_the_probe(self, nx,
                                                        monkeypatch):
        # on the maps (converge's s = 1 runs, to tol 1e-10 within 1000
        # iterations), a tracked run probes both resolvents before the
        # first pr_step, by ceil(n_interface / _probe_width()) Robin
        # solves each, and then reads every tracked quantity from the
        # forms, at every size: no Robin or Dirichlet solve and no flux
        # recovery
        setup = setup_problem(default_problem(nx=nx))
        refs = references_from_monolithic(setup)
        calls = count_solves(monkeypatch)
        cfg = IterationConfig(s=1.0, max_iter=1000)
        _, report = run_pr(setup.solvers, cfg, references=refs)
        assert report.status == "converged"
        first = calls.index("pr_step")
        before, after = calls[:first], calls[first:]
        assert before.count("robin_solve") == sum(
            -(-s.ops.n_interface // _probe_width(s)) for s in setup.solvers)
        assert after.count("pr_step") == report.n_iterations
        for name in ("robin_solve", "dirichlet_solve", "flux_recovery"):
            assert after.count(name) == 0
        assert all(s.forms is not None for s in setup.solvers)


class TestDenseGuard:
    def test_column_guard(self):
        with pytest.raises(ValueError, match="guard"):
            assemble_dense(lambda e: e, 100, 100)


class TestSpectralAnalysis:
    def test_bijectivity_and_contraction_indicators(self):
        setup = small_setup(nx=6, n_steps=4)
        ops = setup.ops_1
        n_g = ops.n_interface
        S1 = assemble_dense(SteklovOperator(setup.solver_1).apply, 4, n_g)
        S2 = assemble_dense(SteklovOperator(setup.solver_2).apply, 4, n_g)
        rows = spectral_analysis(S1, S2, ops.M_gamma, ops.grid.tau,
                                 [0.1, 1.0, 10.0])
        for r in rows:
            assert r.sv_min_sJ_S1 > 0
            assert r.sv_min_sJ_S2 > 0
            assert r.sv_min_S1_S2 > 0
            assert r.eig_min_sym_S1 > 0
            assert r.eig_min_sym_S2 > 0
            assert r.rho < 1.0


    @staticmethod
    def _dense_pair(nx=6, n_steps=4):
        setup = small_setup(nx=nx, n_steps=n_steps)
        ops = setup.ops_1
        S1 = assemble_dense(SteklovOperator(setup.solver_1).apply,
                            n_steps, ops.n_interface)
        S2 = assemble_dense(SteklovOperator(setup.solver_2).apply,
                            n_steps, ops.n_interface)
        return ops, S1, S2

    def test_rho_is_spectral_radius_of_diagonal_block(self):
        # T_0 = (J_0 + S2_0)^-1 (J_0 - S1_0)(J_0 + S1_0)^-1 (J_0 - S2_0)
        ops, S1, S2 = self._dense_pair()
        n_g = ops.n_interface
        A1, A2 = S1[:n_g, :n_g], S2[:n_g, :n_g]
        ML = lumped_interface_mass(ops.M_gamma).toarray()
        rows = spectral_analysis(S1, S2, ops.M_gamma, ops.grid.tau,
                                 [0.1, 1.0, 10.0])
        for r in rows:
            J = r.s * ML
            T0 = (np.linalg.inv(J + A2) @ (J - A1)
                  @ np.linalg.inv(J + A1) @ (J - A2))
            assert r.rho == pytest.approx(
                np.abs(np.linalg.eigvals(T0)).max(), rel=1e-12)

    def test_full_propagator_cross_check(self):
        # the full T is block lower triangular with T_0 on every diagonal
        # block; its eigenvalues are only a loose check of rho, since T is
        # defective and they scatter by O(eps^(1/n_steps))
        n_steps = 4
        ops, S1, S2 = self._dense_pair(n_steps=n_steps)
        n_g = ops.n_interface
        ML = lumped_interface_mass(ops.M_gamma).toarray()
        for r in spectral_analysis(S1, S2, ops.M_gamma, ops.grid.tau,
                                   [0.1, 1.0, 10.0]):
            J = np.kron(np.eye(n_steps), r.s * ML)
            T = np.linalg.solve(J + S2,
                                (J - S1) @ np.linalg.solve(J + S1, J - S2))
            blocks = T.reshape(n_steps, n_g, n_steps, n_g).swapaxes(1, 2)
            tol = 1e-12 * np.abs(T).max()
            for k in range(n_steps):
                assert np.abs(blocks[k, k + 1:]).max(initial=0.0) <= tol
                assert np.abs(blocks[k, k] - blocks[0, 0]).max() <= tol
            rho_full = np.abs(np.linalg.eigvals(T)).max()
            assert r.rho == pytest.approx(rho_full, rel=0.05)


class TestNorms:
    def test_h_norm_matches_direct_sum(self):
        setup = small_setup()
        ops = setup.ops_1
        rng = np.random.default_rng(8)
        eta = rand_signal(rng, 4, ops.n_interface)
        Mg = ops.M_gamma.toarray()
        direct = np.sqrt(sum(ops.grid.tau * v @ Mg @ v for v in eta.values))
        assert h_norm(eta, ops.M_gamma, ops.grid.tau) == pytest.approx(direct)

    # numpy warns of the plain sum's overflow (inf, or nan where infinite
    # terms of both signs meet), which the norm then mends
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("scale", [1e300, 1e-300])
    def test_h_norm_keeps_the_scale_of_extreme_signals(self, scale):
        # the squares of these values overflow or underflow, so the sum
        # is taken again on the signal divided by its largest value; in
        # a block only such columns are, and a zero column stays 0.  At
        # desk scale the norm is the plain sum, bit for bit
        from rrlab.subsolve import _dofwise
        setup = small_setup()
        ops = setup.ops_1
        tau, Mg = ops.grid.tau, ops.M_gamma
        eta = rand_signal(np.random.default_rng(8), 4, ops.n_interface)
        plain = np.sqrt(np.maximum(
            tau * np.sum(eta.values * _dofwise(Mg, eta.values)), 0.0))
        unit = h_norm(eta, Mg, tau)
        assert unit == plain
        assert h_norm(eta * scale, Mg, tau) == pytest.approx(
            scale * unit, rel=1e-14, abs=0.0)
        block = InterfaceSignal(np.stack(
            [eta.values, scale * eta.values, 0 * eta.values]))
        np.testing.assert_allclose(h_norm(block, Mg, tau),
                                   [unit, scale * unit, 0.0], rtol=1e-14)
