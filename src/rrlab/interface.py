"""Discrete Steklov-Poincare algebra and interface iterations.

The Steklov-Poincare operator of a subdomain maps an interface trace to
the variational flux of the trace-lifted homogeneous solve; discretely
it is exactly the interface Schur complement of the weighted space-time
system.  The Robin-Robin method is realized twice: as the
Peaceman-Rachford iteration on interface signals, and as alternating
Robin subdomain sweeps at the PDE level.  Both paths use the same
resolvent (one Robin solve, never an inner iteration), so their iterates
agree to roundoff.

A Peaceman-Rachford step is two Robin solves: the state it carries is
the Robin datum lam = (sJ - S2) eta + chi, and each reflection
(sJ - S_i) x = 2 sJ x - (sJ + S_i) x is read off the right-hand side
of the resolvent that produced x.  S_i is applied by a Dirichlet solve
and a flux recovery only in probing, reference tracking of subdomain 1
and the acceptance criteria; reference tracking reads the subdomain-2
field and S2 eta off the Robin solve that gave eta, and tracks
subdomain 1 on blocks of iterates.

Every interface operator here is causal and time-invariant, so it is a
BlockToeplitz, determined by its first block column.  Dense probing
forms that column from the unit signals at step 1, and reference
tracking pushes its residuals through the subdomain-2 resolvent
(sJ + S2)^-1 probed once per run (robin_trace_map), not through a Robin
solve per block of iterates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.linalg

from .assembly import (SubdomainOperators, lumped_interface_mass,
                       robin_coefficient)
from .subsolve import (InterfaceSignal, SpaceTimeField, SubdomainSolver,
                       step_norm)

__all__ = [
    "SteklovOperator", "IterationConfig", "ConvergenceReport",
    "interface_gram", "interface_source", "solve_robin_resolvent",
    "pr_step", "run_pr", "run_rr", "run_iteration", "RobinSweepState",
    "init_robin_sweep", "robin_sweep", "run_equivalence", "h_norm",
    "assemble_dense", "spectral_analysis", "SpectralRow", "BlockToeplitz",
    "robin_trace_map",
]

DENSE_COLUMN_GUARD = 2000


# ---------------------------------------------------------------------------
# Elementary interface operators
# ---------------------------------------------------------------------------

class SteklovOperator:
    """Matrix-free trace-to-flux map of one subdomain."""

    def __init__(self, solver: SubdomainSolver):
        self.solver = solver

    def apply(self, eta: InterfaceSignal) -> InterfaceSignal:
        """Flux of the homogeneous Dirichlet solve with trace eta."""
        u = self.solver.dirichlet_solve(eta=eta, loads=None)
        return self.solver.flux_recovery(u, loads=None)


def interface_gram(eta: InterfaceSignal, ops: SubdomainOperators,
                   s: float) -> InterfaceSignal:
    """The s-weighted interface pairing used by the Robin exchange.

    Returns the dual signal robin_coefficient(s, tau) * tau *
    ML_Gamma eta^k with ML_Gamma the lumped interface mass of ``ops``
    (its diagonal is computed once per subdomain), i.e. the "s J" term
    of the resolvent and reflection operators under the package's Robin
    pairing convention.
    """
    if eta.kind != "primal":
        raise ValueError("interface pairing acts on primal signals")
    coef = robin_coefficient(s, ops.grid.tau) * ops.grid.tau
    return InterfaceSignal(coef * (eta.values * ops.lumped_gamma), "dual")


def interface_source(solver: SubdomainSolver) -> InterfaceSignal:
    """Interface source of one subdomain: minus the flux of the
    zero-trace solve with the assembled loads."""
    sigma = solver.flux_recovery(solver.source_field(), loads=solver.ops.loads)
    return InterfaceSignal(-sigma.values, "dual")


def solve_robin_resolvent(solver: SubdomainSolver, rhs: InterfaceSignal,
                          s: float) -> InterfaceSignal:
    """Solve (s J + S_i) eta = rhs with a single Robin subdomain solve."""
    if rhs.kind != "dual":
        raise ValueError("resolvent right-hand side must be a dual signal")
    u = solver.robin_solve(s, lam=rhs, loads=None)
    return solver.trace(u)


# ---------------------------------------------------------------------------
# Norms on interface signals
# ---------------------------------------------------------------------------

def h_norm(eta: InterfaceSignal, M_gamma, tau: float):
    """L2(interface x time) norm: sqrt(sum_k tau eta_k^T M_Gamma eta_k);
    one value per column of a block."""
    return step_norm(M_gamma, eta.values, tau)


# ---------------------------------------------------------------------------
# Peaceman-Rachford interface iteration
# ---------------------------------------------------------------------------

@dataclass
class IterationConfig:
    """Parameters of the interface iteration."""

    s: float = 1.0
    tol: float = 1e-10
    max_iter: int = 200
    variant: str = "pr_interface"

    def __post_init__(self):
        if self.s <= 0:
            raise ValueError("Robin parameter s must be positive")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if self.variant not in ("pr_interface", "rr_pde"):
            raise ValueError(f"unknown iteration variant {self.variant!r}")


@dataclass
class ConvergenceReport:
    """Per-iteration diagnostics of an interface iteration run."""

    increments: list = field(default_factory=list)     # ||eta^n - eta^{n-1}||_H
    errors_1: list = field(default_factory=list)       # X-norm field errors
    errors_2: list = field(default_factory=list)
    gaps_1: list = field(default_factory=list)         # monotone gaps
    gaps_2: list = field(default_factory=list)
    residuals: list = field(default_factory=list)      # preconditioned residual
    status: str = "max_iter"

    @property
    def n_iterations(self) -> int:
        return len(self.increments)


def pr_step(solvers, chi_sum: InterfaceSignal, lam: InterfaceSignal,
            s: float) -> tuple[InterfaceSignal, InterfaceSignal, SpaceTimeField]:
    """One Peaceman-Rachford double sweep on the interface.

    The step is carried on the Robin datum lam = (sJ - S2) eta + chi,
    where chi = chi_1 + chi_2, and costs two Robin solves:

        eta half = (sJ + S1)^-1 lam,
        mu       = (sJ - S1) eta half + chi = 2 sJ eta half - lam + chi,
        eta next = (sJ + S2)^-1 mu,
        lam next = (sJ - S2) eta next + chi = 2 sJ eta next - mu + chi.

    Each reflection (sJ - S_i) x = 2 sJ x - (sJ + S_i) x takes
    (sJ + S_i) x from the right-hand side of the resolvent that gave x
    (Lions & Mercier, SIAM J. Numer. Anal. 16, 1979), so no Dirichlet
    solve applies S_i.  Returns (eta next, lam next, w2), where w2 is
    the homogeneous subdomain-2 Robin field whose trace is eta next.
    With chi = 0 the map is linear and its fixed point is zero; in
    general fixed points solve (S1 + S2) eta = chi.
    """
    s1, s2 = solvers

    eta_half = solve_robin_resolvent(s1, lam, s)
    mu = 2.0 * interface_gram(eta_half, s1.ops, s) - lam + chi_sum
    w2 = s2.robin_solve(s, lam=mu)
    eta_next = s2.trace(w2)
    lam_next = 2.0 * interface_gram(eta_next, s1.ops, s) - mu + chi_sum
    return eta_next, lam_next, w2


@dataclass
class PRReferences:
    """Reference data enabling error and gap tracking inside run_pr."""

    eta_ref: InterfaceSignal
    u1_ref: SpaceTimeField
    u2_ref: SpaceTimeField


# ---------------------------------------------------------------------------
# PDE-level Robin-Robin sweep
# ---------------------------------------------------------------------------

@dataclass
class RobinSweepState:
    """State carried between PDE-level Robin-Robin sweeps."""

    u1: SpaceTimeField | None
    u2: SpaceTimeField
    lam1: InterfaceSignal        # Robin data for the next Omega_1 solve


def _robin_exchange(solver: SubdomainSolver, u: SpaceTimeField,
                    s: float) -> InterfaceSignal:
    """Robin data extracted from a neighbour solution.

    Computed variationally: s-weighted interface pairing of the trace
    minus the recovered flux.  Never by geometric differencing.
    """
    ops = solver.ops
    tr = solver.trace(u)
    sig = solver.flux_recovery(u, ops.loads)
    return interface_gram(tr, ops, s) - sig


def init_robin_sweep(solvers, s: float) -> RobinSweepState:
    """Initial sweep state consistent with the interface iteration.

    Takes u2^0 as the Dirichlet solve with zero trace and subdomain-2
    loads, then extracts its Robin exchange data.
    """
    s2 = solvers[1]
    u2 = s2.source_field()
    return RobinSweepState(None, u2, _robin_exchange(s2, u2, s))


def robin_sweep(solvers, state: RobinSweepState, s: float) -> RobinSweepState:
    """One alternating Robin-Robin sweep at the PDE level.

    Solves Omega_1 with Robin data from the current u2, then Omega_2
    with Robin data from the new u1.  The trace of the returned u2
    reproduces the interface iterate of pr_step exactly (to roundoff).
    """
    s1, s2 = solvers
    u1 = s1.robin_solve(s, lam=state.lam1, loads=s1.ops.loads)
    lam2 = _robin_exchange(s1, u1, s)
    u2 = s2.robin_solve(s, lam=lam2, loads=s2.ops.loads)
    lam1 = _robin_exchange(s2, u2, s)
    return RobinSweepState(u1, u2, lam1)


# ---------------------------------------------------------------------------
# Iteration drivers shared by both realizations
# ---------------------------------------------------------------------------

def _orbit(step, x):
    """Yield step(x), step(step(x)), ... without end."""
    while True:
        x = step(x)
        yield x


# Both iterate sequences yield (eta, subdomain_2): subdomain_2() returns
# the loaded subdomain-2 field u2 with trace eta and its flux
# sigma2 = S2 eta - chi_2, read off the Robin solve that gave eta, so
# reference tracking needs no Dirichlet solve on subdomain 2.

def _pr_iterates(solvers, chi, s: float):
    """Peaceman-Rachford iterates from eta^0 = 0, whose Robin datum is
    chi = chi_1 + chi_2 itself.

    u2 = w2 + u2_0, with w2 the Robin field of pr_step and u2_0 the
    source field; sigma2 = sJ eta + chi_1 - lam next, since
    lam next = (sJ - S2) eta + chi_1 + chi_2.
    """
    s2 = solvers[1]
    chi_1, chi_2 = chi
    chi_sum = chi_1 + chi_2

    def subdomain_2(eta, lam, w2):
        u2 = SpaceTimeField(w2.values + s2.source_field().values, w2.domain)
        return u2, interface_gram(eta, s2.ops, s) + chi_1 - lam

    lam = chi_sum
    while True:
        eta, lam, w2 = pr_step(solvers, chi_sum, lam, s)
        yield eta, partial(subdomain_2, eta, lam, w2)


def _rr_iterates(solvers, s: float):
    """Traces of u2 after each Robin sweep; the initial sweep state is
    built at once, before the first iterate is drawn.

    sigma2 = sJ eta - lam1, since the sweep's next Robin datum is
    lam1 = sJ eta - sigma2.
    """
    s2 = solvers[1]

    def subdomain_2(eta, state):
        return state.u2, interface_gram(eta, s2.ops, s) - state.lam1

    sweeps = _orbit(lambda state: robin_sweep(solvers, state, s),
                    init_robin_sweep(solvers, s))
    for state in sweeps:
        eta = s2.trace(state.u2)
        yield eta, partial(subdomain_2, eta, state)


def _run_iteration(solvers, config: IterationConfig, iterates,
                   references: PRReferences | None, chi=None):
    """Shared driver: draw interface iterates, track diagnostics.

    ``iterates`` yields eta^1, eta^2, ... (eta^0 = 0), each with its
    subdomain-2 field and flux; at most config.max_iter of them are
    drawn, and the stopping rule reads only the increments.  When
    ``references`` is given, the report also holds, per iteration, the
    subdomain X-norm errors of the interface-parametrized fields, the
    monotone gaps against the reference trace, and the Steklov-Poincare
    residual pushed through the resolvent (sJ + S2)^-1 (the iteration's
    own metric).  The subdomain-2 error and gap are read off the Robin
    solve of each iteration.  The rest is a pure function of eta^n and
    S2 eta^n, so it is computed for a block of iterates at once
    (_track_block): one Dirichlet solve with a flux recovery (subdomain
    1) per block of SubdomainSolver.block_width() iterates, and one
    apply of the resolvent, which robin_trace_map probes once per run,
    before the first iterate is drawn, with ceil(n_interface / width)
    Robin solves.  ``chi`` holds the interface sources (chi_1, chi_2)
    when the caller has computed them already.
    """
    s1, s2 = solvers
    ops = s1.ops
    tau, Mg = ops.grid.tau, ops.M_gamma
    eta = InterfaceSignal(np.zeros((ops.grid.n_steps, ops.n_interface)), "primal")

    report = ConvergenceReport()
    track = references is not None
    if track:
        from .lab import field_error_norm     # local import, no cycle at load
        chi = chi or tuple(map(interface_source, solvers))
        S1_ref = s1.flux_recovery(references.u1_ref, s1.ops.loads) + chi[0]
        S2_ref = s2.flux_recovery(references.u2_ref, s2.ops.loads) + chi[1]
        # probed once, before the first iterate is drawn, so that every
        # iteration does the same work (perfbench pools later iterations)
        robin_map = robin_trace_map(s2, config.s)
        width, pending = s1.block_width(), []

        def flush(n_tracked):
            # track the pending block; its first n_tracked iterates count
            rows = _track_block(s1, references, chi, S1_ref, robin_map,
                                pending)
            for values, row in zip(rows, (report.errors_1, report.gaps_1,
                                          report.residuals)):
                row.extend(values[:n_tracked].tolist())
            pending.clear()

    for _, (eta_next, subdomain_2) in zip(range(config.max_iter), iterates):
        inc = h_norm(eta_next - eta, Mg, tau)
        eta = eta_next
        report.increments.append(inc)

        if track:
            u2, sigma2 = subdomain_2()
            S2_eta = sigma2 + chi[1]
            report.errors_2.append(
                field_error_norm(u2, references.u2_ref, s2.ops))
            del u2      # a whole field; not kept through a block's solves
            report.gaps_2.append(
                (S2_ref - S2_eta).pair(references.eta_ref - eta))
            pending.append((eta.values, S2_eta.values))
            if len(pending) == width:
                flush(width)

        scale0 = report.increments[0]
        if not np.isfinite(inc) or (scale0 > 0 and inc > 1e6 * scale0):
            report.status = "diverged"
            break
        if inc <= config.tol:
            report.status = "converged"
            break
    if track and pending:
        # a last block of full width, padded with the last iterate, so
        # that every block of a run does the same work (perfbench times
        # repeated work at its fastest repetition)
        n_tracked = len(pending)
        pending += pending[-1:] * (width - n_tracked)
        flush(n_tracked)
    return eta, report


def _track_block(s1: SubdomainSolver, references: PRReferences, chi,
                 S1_ref, robin_map: BlockToeplitz, pending: list):
    """Subdomain-1 X-norm errors and gaps, and residuals, of a block of
    iterates given as (eta^n, S2 eta^n) values; one array each.  The
    residuals go through ``robin_map``, (sJ + S2)^-1, in one apply."""
    from .lab import field_error_norm
    ops = s1.ops
    eta = InterfaceSignal(np.array([p[0] for p in pending]), "primal")
    S2_eta = InterfaceSignal(np.array([p[1] for p in pending]), "dual")
    u1 = s1.dirichlet_solve(eta=eta, loads=ops.loads)
    S1_eta = s1.flux_recovery(u1, ops.loads) + chi[0]
    resid = (S1_eta + S2_eta) - (chi[0] + chi[1])
    precond = InterfaceSignal(robin_map.apply(resid.values), "primal")
    return (field_error_norm(u1, references.u1_ref, ops),
            (S1_ref - S1_eta).pair(references.eta_ref - eta),
            h_norm(precond, ops.M_gamma, ops.grid.tau))


def run_pr(solvers, config: IterationConfig,
           references: PRReferences | None = None):
    """Run the interface Peaceman-Rachford iteration.

    Returns (eta, report); see _run_iteration for the diagnostics.  A
    tracked iteration costs the two Robin solves of pr_step; the
    subdomain-1 errors and gaps cost one Dirichlet solve and flux
    recovery per block of iterates, and the residuals no solve beyond
    the probe of (sJ + S2)^-1 made once per tracked run.
    """
    chi = tuple(map(interface_source, solvers))
    iterates = _pr_iterates(solvers, chi, config.s)
    return _run_iteration(solvers, config, iterates, references, chi)


def run_rr(solvers, config: IterationConfig,
           references: PRReferences | None = None):
    """Run the PDE-level Robin-Robin sweep.

    The interface iterate is the trace of the second subdomain's Robin
    solution; it coincides with the Peaceman-Rachford iterate of run_pr
    to roundoff, so the two drivers are interchangeable.
    """
    return _run_iteration(solvers, config, _rr_iterates(solvers, config.s),
                          references)


def run_iteration(solvers, config: IterationConfig,
                  references: PRReferences | None = None):
    """Dispatch on config.variant: pr_interface or rr_pde."""
    driver = run_pr if config.variant == "pr_interface" else run_rr
    return driver(solvers, config, references)


def run_equivalence(solvers, s: float, n_iterations: int):
    """Run the interface and the PDE-level iterations in lockstep.

    Returns a list of per-iteration maximum relative discrepancies
    between the PR interface iterate and the trace of the Robin-Robin
    u2, measured in the interface L2 norm.
    """
    s1, s2 = solvers
    tau, Mg = s1.ops.grid.tau, s1.ops.M_gamma
    chi = (interface_source(s1), interface_source(s2))
    discrepancies = []
    for _, (eta, _), (tr, _) in zip(range(n_iterations),
                                    _pr_iterates(solvers, chi, s),
                                    _rr_iterates(solvers, s)):
        num = h_norm(tr - eta, Mg, tau)
        den = h_norm(eta, Mg, tau)
        discrepancies.append(num / den if den > 0 else num)
    return discrepancies


# ---------------------------------------------------------------------------
# Block-Toeplitz operators, dense probing and spectral analysis
# ---------------------------------------------------------------------------

class BlockToeplitz:
    """A causal, time-invariant linear map between interface signals.

    On uniform steps with zero initial data such a map is block lower
    triangular Toeplitz in time (Lubich & Ostermann, BIT 27, 1987), so
    its first block column determines it: first[k], an n_out x n_in
    block, is the output at step k + 1 of the unit inputs at step 1.
    """

    def __init__(self, first: np.ndarray):
        self.first = np.ascontiguousarray(first, dtype=float)

    @classmethod
    def probe(cls, apply_fn, n_steps: int, n_in: int, kind: str = "primal",
              width: int | None = None) -> "BlockToeplitz":
        """Probe ``apply_fn`` with the n_in unit ``kind`` signals at step 1,
        as blocks of at most ``width`` signals (all in one by default)."""
        width = width or n_in
        first = None
        for lo in range(0, n_in, width):
            units = np.zeros((min(width, n_in - lo), n_steps, n_in))
            units[:, 0, lo:lo + len(units)] = np.eye(len(units))
            out = apply_fn(InterfaceSignal(units, kind)).values
            if first is None:
                first = np.empty((n_steps, out.shape[-1], n_in))
            # (unit, step, output) -> (step, output, unit), in place
            first[..., lo:lo + len(units)] = np.moveaxis(out, 0, -1)
        return cls(first)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """y_k = sum_{j <= k} first[k - j] x_j for x shaped
        ([m,] n_steps, n_in): one product per step lag, a whole block
        of columns at once."""
        x = np.asarray(values, dtype=float)
        n_steps = len(self.first)
        y = np.zeros(x.shape[:-1] + (self.first.shape[1],))
        for lag, block in enumerate(self.first):
            y[..., lag:, :] += x[..., :n_steps - lag, :] @ block.T
        return y

    def dense(self) -> np.ndarray:
        """The (n_steps n_out) x (n_steps n_in) matrix: the first block
        column tiled down the block diagonals.  Column (k * n_in + g) is
        the flattened output for the unit input at step k + 1, dof g
        (time-major flattening)."""
        n_steps, n_out, n_in = self.first.shape
        column = self.first.reshape(n_steps * n_out, n_in)
        out = np.zeros((n_steps * n_out, n_steps * n_in))
        for k in range(n_steps):
            out[k * n_out:, k * n_in:(k + 1) * n_in] = \
                column[:(n_steps - k) * n_out]
        return out


def robin_trace_map(solver: SubdomainSolver, s: float) -> BlockToeplitz:
    """The resolvent (sJ + S_i)^-1 of one subdomain as a BlockToeplitz.

    Probed by Robin solves of the n_interface unit dual signals at step
    1, SubdomainSolver.block_width() signals per solve, so it costs
    ceil(n_interface / width) Robin solves and keeps one first block
    column; an apply then costs no solve.
    """
    ops = solver.ops
    return BlockToeplitz.probe(partial(solve_robin_resolvent, solver, s=s),
                               ops.grid.n_steps, ops.n_interface, "dual",
                               solver.block_width())


def assemble_dense(apply_fn, n_steps: int, n_interface: int) -> np.ndarray:
    """Dense matrix of a causal, time-invariant linear interface operator.

    The operator is assumed to act on signals with uniform steps and
    zero initial data, as every Steklov-Poincare operator and interface
    pairing of the package does, so it is a BlockToeplitz.  Only the
    n_interface unit primal signals at step 1 are probed, as one block
    of signals in one call of ``apply_fn``; the result is
    BlockToeplitz.dense() of that first block column.
    DENSE_COLUMN_GUARD bounds n_steps * n_interface, the side of the
    square output.
    """
    n_cols = n_steps * n_interface
    if n_cols > DENSE_COLUMN_GUARD:
        raise ValueError(f"dense probing guard exceeded: "
                         f"{n_cols} columns > {DENSE_COLUMN_GUARD}")
    return BlockToeplitz.probe(apply_fn, n_steps, n_interface).dense()


@dataclass(frozen=True)
class SpectralRow:
    """Spectral diagnostics of the interface iteration at one s."""

    s: float
    rho: float
    sv_min_sJ_S1: float
    sv_min_sJ_S2: float
    sv_min_S1_S2: float
    eig_min_sym_S1: float
    eig_min_sym_S2: float


def spectral_analysis(S1: np.ndarray, S2: np.ndarray, M_gamma, tau: float,
                      s_values) -> list[SpectralRow]:
    """Dense spectral portrait of the Peaceman-Rachford iteration.

    For each s: spectral radius of the linear part
    T = (sJ + S2)^-1 (sJ - S1) (sJ + S1)^-1 (sJ - S2), minimum singular
    values of sJ + S_i and S1 + S2, and minimum eigenvalues of the
    symmetric parts of S_i.  J here is the interface pairing actually
    used by the iteration (the Robin-weight convention).

    S1 and S2 are dense matrices from assemble_dense, so they are
    causal and block Toeplitz in time (uniform steps, zero initial
    data) and at most DENSE_COLUMN_GUARD wide.  T is then block lower
    triangular with the diagonal block
    T_0 = (J_0 + S2_0)^-1 (J_0 - S1_0) (J_0 + S1_0)^-1 (J_0 - S2_0),
    where S_i_0 and J_0 are the step-1 diagonal blocks, and the spectrum
    of T is that of T_0.  rho is taken from T_0: the full T is
    defective, and its computed eigenvalues move by O(eps^(1/n_steps))
    (Trefethen & Embree, Spectra and Pseudospectra, 2005).  The singular
    values and symmetric-part eigenvalues come from the full matrices.
    """
    n_g = M_gamma.shape[0]
    n_steps = S1.shape[0] // n_g
    ML = lumped_interface_mass(M_gamma).toarray()
    S1_0, S2_0 = S1[:n_g, :n_g], S2[:n_g, :n_g]
    sym1 = scipy.linalg.eigvalsh(0.5 * (S1 + S1.T)).min()
    sym2 = scipy.linalg.eigvalsh(0.5 * (S2 + S2.T)).min()
    sv_sum = scipy.linalg.svdvals(S1 + S2).min()
    rows = []
    for s in s_values:
        J_0 = robin_coefficient(s, tau) * tau * ML
        T_0 = np.linalg.solve(
            J_0 + S2_0, (J_0 - S1_0) @ np.linalg.solve(J_0 + S1_0, J_0 - S2_0))
        J = np.kron(np.eye(n_steps), J_0)
        rows.append(SpectralRow(
            s=float(s),
            rho=float(np.abs(np.linalg.eigvals(T_0)).max()),
            sv_min_sJ_S1=float(scipy.linalg.svdvals(J + S1).min()),
            sv_min_sJ_S2=float(scipy.linalg.svdvals(J + S2).min()),
            sv_min_S1_S2=float(sv_sum),
            eig_min_sym_S1=float(sym1),
            eig_min_sym_S2=float(sym2),
        ))
    return rows
