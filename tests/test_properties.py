"""Property tests of the structural identities over random geometry,
diffusion jumps and theta: PDE/interface equivalence of the two
Robin-Robin realizations, the causal block-Toeplitz structure of the
Steklov-Poincare operators that assemble_dense relies on, the
resolvent round trip, the agreement of the banded time steps with
dense ones, the agreement of block solves with column-by-column
solves, the probed Robin trace map against the Robin solves it
replaces, the maps made from it by BlockToeplitz.inverse (S_i and
every other resolvent), the Peaceman-Rachford step through those maps
against the step made of Robin solves, and a subdomain's forms of a
block of traces read from the probe (S_i d, the gap and the X norm of
the Dirichlet field, from the derived column and the Hankel blocks)
against a Dirichlet solve."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import subsolve
from rrlab.assembly import build_step_operators
from rrlab.interface import (BlockToeplitz, SteklovOperator, _subdomain_forms,
                             assemble_dense, interface_gram, interface_source,
                             pr_step, robin_trace_map, run_equivalence,
                             solve_robin_resolvent)
from rrlab.lab import setup_problem
from rrlab.mesh import ProblemSpec
from rrlab.subsolve import InterfaceSignal, SubdomainSolver

PROPERTY_SETTINGS = settings(max_examples=25, deadline=None,
                             derandomize=True, database=None)


@st.composite
def problems(draw):
    dimension = draw(st.sampled_from([1, 2]))
    nx = draw(st.integers(2, 8))
    column = draw(st.integers(1, nx - 1))
    jump = 10.0 ** draw(st.floats(-3.0, 3.0))
    gx = column / nx

    if dimension == 1:
        def diffusion(x):
            return np.where(x < gx, 1.0, jump)

        def source(x, t):
            return np.cos(2 * x) + np.sin(t)
    else:
        def diffusion(x, y):
            return np.where(x < gx, 1.0, jump)

        def source(x, y, t):
            return np.cos(2 * x + y) + np.sin(t)
    return ProblemSpec(
        dimension=dimension, nx=nx,
        ny=draw(st.integers(2, 8)) if dimension == 2 else 0,
        interface_x=gx, diffusion=diffusion, source=source,
        n_steps=draw(st.integers(2, 4)),
        theta=draw(st.sampled_from([1.0, 0.5])))


@PROPERTY_SETTINGS
@given(problems())
def test_pde_and_interface_iterates_agree(spec):
    setup = setup_problem(spec)
    assert max(run_equivalence(setup.solvers, 1.0, 5)) <= 1e-10


@PROPERTY_SETTINGS
@given(problems())
def test_steklov_operators_are_causal_block_toeplitz(spec):
    # a unit signal at any step k gives the tiled column of assemble_dense,
    # which probes step 1 only: the operator is causal (zero output before
    # step k) and time-invariant
    setup = setup_problem(spec)
    n, g = spec.n_steps, setup.ops_1.n_interface
    for solver in setup.solvers:
        apply = SteklovOperator(solver).apply
        S = assemble_dense(apply, n, g)
        scale = np.abs(S).max()
        for k in range(n):
            for j in range(g):
                e = np.zeros((n, g))
                e[k, j] = 1.0
                out = apply(InterfaceSignal(e, "primal")).values
                assert not out[:k].any()
                defect = np.abs(out.ravel() - S[:, k * g + j]).max()
                assert defect <= 1e-14 * scale


@PROPERTY_SETTINGS
@given(problems(), st.sampled_from([0.1, 1.0, 10.0]))
def test_resolvent_inverts_robin_operator(spec, s):
    # (sJ + S_i) applied to the resolvent of rhs gives rhs back
    setup = setup_problem(spec)
    ops = setup.ops_1
    rng = np.random.default_rng(0)
    rhs = InterfaceSignal(
        rng.standard_normal((spec.n_steps, ops.n_interface)), "dual")
    for solver in setup.solvers:
        eta = solve_robin_resolvent(solver, rhs, s)
        back = (interface_gram(eta, ops, s)
                + SteklovOperator(solver).apply(eta))
        assert np.abs(back.values - rhs.values).max() \
            <= 1e-10 * np.abs(rhs.values).max()


def _dense_march(A, C, rhs):
    """x_k = A^-1 (rhs_k + C x_{k-1}) from x_{-1} = 0, with A and C dense
    and in the dofs' order: the theta scheme without a band or an
    ordering, step by step."""
    A, C = A.toarray(), C.toarray()
    x, steps = np.zeros(A.shape[0]), []
    for b in rhs:
        x = np.linalg.solve(A, b + C @ x)
        steps.append(x)
    return np.array(steps)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 10.0))
def test_dense_and_banded_steps_agree(spec, s):
    # the Dirichlet and Robin solves, each step a banded Cholesky solve
    # in band order, against the same steps made with the dense step
    # matrices in the dofs' order
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    shape = (spec.n_steps, setup.ops_1.n_interface)
    eta = InterfaceSignal(rng.standard_normal(shape), "primal")
    lam = InterfaceSignal(rng.standard_normal(shape), "dual")
    for ops in (setup.ops_1, setup.ops_2):
        solver = SubdomainSolver(ops)
        nI, f = ops.n_interior, ops.loads
        A, C = build_step_operators(ops)
        # f_I^k - A_IG eta^k + C_IG eta^{k-1}
        g = eta.values
        g_prev = np.vstack([np.zeros((1, g.shape[1])), g[:-1]])
        rhs = f[:, :nI] - g @ A[:nI, nI:].T + g_prev @ C[:nI, nI:].T
        interior = _dense_march(A[:nI, :nI], C[:nI, :nI], rhs)
        A_rob, _ = build_step_operators(ops, s=s)
        rhs = f.copy()
        rhs[:, nI:] += lam.values / ops.grid.tau
        robin = _dense_march(A_rob, C, rhs)
        u = solver.dirichlet_solve(eta, f).values[1:]
        assert np.array_equal(u[:, nI:], g)
        for banded, dense in ((u[:, :nI], interior),
                              (solver.robin_solve(s, lam, f).values[1:],
                               robin)):
            assert np.linalg.norm(dense - banded) \
                <= 1e-13 * np.linalg.norm(banded)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 10.0), st.integers(1, 5))
def test_block_solves_equal_column_by_column_solves(spec, s, m):
    # a block of m data columns, marched together, gives each column's
    # own solve, with one Factorization.solve per time step for the
    # whole block
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    shape = (m, spec.n_steps, setup.ops_1.n_interface)
    eta = InterfaceSignal(rng.standard_normal(shape), "primal")
    lam = InterfaceSignal(rng.standard_normal(shape), "dual")
    solves = []
    original = subsolve.Factorization.solve

    def counted(fac, rhs):
        solves.append(fac.label)
        return original(fac, rhs)

    for ops in (setup.ops_1, setup.ops_2):
        solver = SubdomainSolver(ops)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsolve.Factorization, "solve", counted)
            solves.clear()
            u = solver.dirichlet_solve(eta, ops.loads)
            assert len(solves) == spec.n_steps
            sigma = solver.flux_recovery(u, ops.loads)
            solves.clear()
            w = solver.robin_solve(s, lam, ops.loads)
            assert len(solves) == spec.n_steps
        for j in range(m):
            u_j = solver.dirichlet_solve(InterfaceSignal(eta.values[j]),
                                         ops.loads)
            w_j = solver.robin_solve(
                s, InterfaceSignal(lam.values[j], "dual"), ops.loads)
            sigma_j = solver.flux_recovery(u_j, ops.loads)
            for got, want in ((u.values[j], u_j.values),
                              (w.values[j], w_j.values),
                              (sigma.values[j], sigma_j.values)):
                assert got.shape == want.shape
                assert np.linalg.norm(got - want) \
                    <= 1e-13 * np.linalg.norm(want)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 10.0), st.integers(1, 5))
def test_robin_trace_map_equals_robin_solves(spec, s, m):
    # (sJ + S_i)^-1 probed in blocks of m unit signals, then applied to a
    # block of m dual signals and to one of them, gives the trace of each
    # one's Robin solve
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    shape = (m, spec.n_steps, setup.ops_1.n_interface)
    rhs = InterfaceSignal(rng.standard_normal(shape), "dual")
    for ops in (setup.ops_1, setup.ops_2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsolve, "BLOCK_VALUES",
                       m * (spec.n_steps + 1) * ops.n_dofs)
            solver = SubdomainSolver(ops)
            assert solver.block_width() == m
            robin_map = robin_trace_map(solver, s)
        want = solve_robin_resolvent(solver, rhs, s).values
        for got, ref in ((robin_map.apply(rhs.values), want),
                         (robin_map.apply(rhs.values[0]), want[0])):
            assert got.shape == ref.shape
            assert np.linalg.norm(got - ref) <= 1e-13 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 10.0), st.floats(0.1, 10.0))
def test_inverse_maps_between_resolvent_and_robin_operator(spec, s0, s):
    # R(s0) is probed by Robin solves; its inverse is s0 J + S_i, so the
    # kept column of S_i equals the Dirichlet-probed one, and s0 J + S_i
    # applied to a Robin solve's trace gives its datum back; the inverse
    # of S_i + sJ, the resolvent at another s, gives the trace of the
    # Robin solve at s
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    n, g = spec.n_steps, setup.ops_1.n_interface
    rhs = InterfaceSignal(rng.standard_normal((3, n, g)), "dual")
    for ops in (setup.ops_1, setup.ops_2):
        solver = SubdomainSolver(ops)
        robin_map = robin_trace_map(solver, s0)
        steklov = solver.forms.steklov
        probed = assemble_dense(SteklovOperator(solver).apply, n, g)
        assert np.abs(steklov.dense() - probed).max() \
            <= 1e-10 * np.abs(probed).max()
        for a, x, want in (
                (robin_map.inverse(),
                 solve_robin_resolvent(solver, rhs, s0).values,
                 rhs.values),
                (robin_trace_map(solver, s), rhs.values,
                 solve_robin_resolvent(solver, rhs, s).values)):
            assert np.linalg.norm(a.apply(x) - want) \
                <= 1e-10 * np.linalg.norm(want)
        # maps at two more new values of s read S_i's column and
        # leave it as the probe made it
        before = steklov.first.copy()
        for t in (s0 + s, 2 * s0 + s):
            robin_trace_map(solver, t)
        assert np.array_equal(steklov.first, before)


@PROPERTY_SETTINGS
@given(st.integers(1, 6), st.integers(1, 4))
def test_inverse_of_a_block_toeplitz_map(n_steps, n):
    # the inverse composed with the map is the identity, in both orders,
    # and the inverse of the inverse is the map
    rng = np.random.default_rng(n_steps * 10 + n)
    first = rng.standard_normal((n_steps, n, n))
    first[0] += 3 * n * np.eye(n)       # a well-conditioned diagonal block
    op = BlockToeplitz(first)
    inv = op.inverse()
    x = rng.standard_normal((2, n_steps, n))
    for got in (inv.apply(op.apply(x)), op.apply(inv.apply(x))):
        assert np.abs(got - x).max() <= 1e-12 * np.abs(x).max()
    assert np.abs(inv.inverse().first - first).max() \
        <= 1e-12 * np.abs(first).max()
    # the inverse of the map shifted by a diagonal on lag 0 is the
    # inverse of the shifted column, bit for bit, and the map is unchanged
    shift = rng.uniform(0.5, 2.0, n)
    shifted = first.copy()
    shifted[0][np.diag_indices(n)] += shift
    assert np.array_equal(op.inverse(shift).first,
                          BlockToeplitz(shifted).inverse().first)
    assert np.array_equal(op.first, first)


@PROPERTY_SETTINGS
@given(problems(), st.floats(0.1, 10.0))
def test_pr_step_equals_two_robin_solve_step(spec, s):
    # pr_step through the probed resolvents against the same step with
    # each resolvent realized by its own Robin solve, over three steps
    # from a random Robin datum
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    lam0 = InterfaceSignal(rng.standard_normal(
        (spec.n_steps, setup.ops_1.n_interface)), "dual")
    solvers = tuple(map(SubdomainSolver, (setup.ops_1, setup.ops_2)))
    s1, s2 = solvers
    chi = interface_source(s1) + interface_source(s2)
    maps = [robin_trace_map(solver, s).apply for solver in solvers]
    lam = want = lam0
    for _ in range(3):
        eta, lam = pr_step(solvers, chi, lam, s, maps)
        half = solve_robin_resolvent(s1, want, s)
        mu = 2.0 * interface_gram(half, s1.ops, s) - want + chi
        eta_want = solve_robin_resolvent(s2, mu, s)
        want = 2.0 * interface_gram(eta_want, s1.ops, s) - mu + chi
        for got, ref in ((eta, eta_want), (lam, want)):
            assert np.linalg.norm(got.values - ref.values) \
                <= 1e-12 * np.linalg.norm(ref.values)


@PROPERTY_SETTINGS
@given(problems(), st.integers(2, 16), st.floats(0.1, 10.0),
       st.integers(1, 5))
def test_forms_x_norm_equals_dirichlet_field_norm(spec, n_steps, s0, width):
    # the X norm of the homogeneous Dirichlet field of a trace d, read
    # from the Hankel blocks of a probe at s0 made in blocks of ``width``
    # unit signals, equals step_norm of the field of a Dirichlet solve;
    # S_i d and the gap from the derived column equal those of the
    # solve's flux to the derived column's tolerance
    spec = dataclasses.replace(spec, n_steps=n_steps)
    setup = setup_problem(spec)
    rng = np.random.default_rng(0)
    d = rng.standard_normal((3, n_steps, setup.ops_1.n_interface))
    for ops in (setup.ops_1, setup.ops_2):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(subsolve, "BLOCK_VALUES",
                       width * (n_steps + 1) * ops.n_dofs)
            solver = SubdomainSolver(ops)
            robin_trace_map(solver, s0)
        got = _subdomain_forms(solver, d, on_forms=True)
        want = _subdomain_forms(solver, d, on_forms=False)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12, atol=0)
        for g, w in zip(got[:2], want[:2]):
            assert np.abs(g - w).max() <= 1e-10 * np.abs(w).max()
