"""Discrete Steklov-Poincare algebra and interface iterations.

The Steklov-Poincare operator of a subdomain maps an interface trace to
the variational flux of the trace-lifted homogeneous solve; discretely
it is exactly the interface Schur complement of the weighted space-time
system.  The Robin-Robin method is realized twice: as the
Peaceman-Rachford iteration on interface signals, and as alternating
Robin subdomain sweeps at the PDE level.  Both paths use the same
resolvent (sJ + S_i)^-1, never an inner iteration, so their iterates
agree to roundoff.

Every interface operator here is causal and time-invariant, so it is a
BlockToeplitz, determined by its first block column, and the inverse of
one is one too (BlockToeplitz.inverse).  A Peaceman-Rachford step
carries the Robin datum lam = (sJ - S2) eta + chi and is two resolvent
applies: each reflection (sJ - S_i) x = 2 sJ x - (sJ + S_i) x is read
off the right-hand side of the resolvent that produced x.  A run
realizes each resolvent by robin_resolvent: as its BlockToeplitz
(robin_trace_map) when its applies over the run save more than the map
costs, and by a Robin solve per apply otherwise.  A subdomain is probed
by Robin solves once, at the first s a map is made for; that probe
gives the solver's SteklovForms: the s-independent column of S_i, from
which every other resolvent is one inverse, and the X-norm form of the
trace-to-field map.  That form is block-Hankel in time up to an
interface term, because the probe's step map A_R^-1 C has symmetric
A_R and C, so its 2 n_steps - 1 interface blocks hold all of it; they
come from the probe's own steps, streamed through the Robin solves with
no field kept (_first_probe).  The PDE-level sweep stays two Robin
solves with loads.  The sources chi enter only the affine part of the
step, so only the Peaceman-Rachford iterates read them: every tracked
quantity is a form of d = eta_ref - eta (_track_block), in which they
cancel.  One kernel gives a subdomain's forms (_subdomain_forms), to
tracking and to acceptance criterion 5: on
the SteklovForms, where both solvers hold them once the run's
resolvents are made (_tracks_on_forms), with no subdomain solve and
blocks of iterates sized by their interface values; otherwise by a
homogeneous Dirichlet solve and a flux recovery per block sized by its
fields, as S_i is applied in the acceptance criteria and the oracles of
the tests (SteklovOperator).  At desk scale these dense interface
products are the iteration's cost, so BlockToeplitz.apply skips the
zero-padded upper triangle of its windows where the product is large.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .assembly import (SubdomainOperators, lumped_interface_mass,
                       robin_coefficient)
from .subsolve import (InterfaceSignal, SolverFailure, SpaceTimeField,
                       SubdomainSolver, step_norm)

__all__ = [
    "SteklovOperator", "IterationConfig", "ConvergenceReport",
    "interface_gram", "interface_source", "solve_robin_resolvent",
    "pr_step", "run_pr", "run_rr", "RobinSweepState",
    "init_robin_sweep", "robin_sweep", "run_equivalence", "h_norm",
    "assemble_dense", "spectral_analysis", "SpectralRow", "BlockToeplitz",
    "robin_trace_map", "robin_resolvent", "check_dense_columns",
    "SteklovForms",
]

DENSE_COLUMN_GUARD = 2000

# BlockToeplitz.apply gathers at most this many input values per product
# (2 MB), so its temporary is bounded whatever n_steps is.
APPLY_WINDOW_VALUES = 2 ** 18

# Where one product of all output steps would multiply at least this many
# values, m * n_steps^2 * n_in * n_out for a block of m signals,
# BlockToeplitz.apply splits the output steps in halves: the first half
# then skips the zero-padded upper triangle of the windows, so the
# product does three quarters of the work.  Measured (16 steps, in us,
# without the split against with it; 2 cores, one BLAS thread):
# n_interface = 63 123 -> 74 at m = 1, 532 -> 285 at m = 4 and
# 1789 -> 1077 at m = 17; n_interface = 31 114 -> 100 at m = 4;
# n_interface = 15 138 -> 120 at m = 17.  Below it the second product
# costs more than it saves: at m = 1, 14 -> 19 at n_interface = 15 and
# 28 -> 29 at n_interface = 31.
SPLIT_APPLY_VALUES = 2 ** 18

# A map of the resolvent (sJ + S_i)^-1 is made by a probe, about
# n_interface one-column Robin solves, on the first s a solver makes a
# map for, and at every later s by one inverse of the kept column of S_i
# (robin_trace_map); the first probe makes one inverse too, for S_i.
# An apply costs about n_steps / RESOLVENT_STEPS of the Robin solve it
# replaces (the apply is quadratic in n_steps, the march linear), and an
# inverse at most about n_interface applies (_map_pays).  Measured on the
# default problem at nx = 8 .. 64, one BLAS thread: apply / Robin solve
# 0.07-0.16 at 16 steps, 0.20-0.27 at 64 and 0.62-0.91 at 256; a probe
# 3.8-76 Robin solves for n_interface = 7-63; an inverse 9-29 applies
# (1.0-1.7 Robin solves) at 16 steps for n_interface = 15-63, and 7 at
# 256 steps for n_interface = 15.  At RESOLVENT_STEPS steps or more a
# map never pays, so no solver is probed and none keeps a column.
RESOLVENT_STEPS = 320


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
    pairing convention.  A finite s that overflows s J is a SolverFailure
    (_sJ; a Robin sweep pairs before any Robin matrix is factored).
    """
    if eta.kind != "primal":
        raise ValueError("interface pairing acts on primal signals")
    return InterfaceSignal(_sJ(ops, s) * eta.values, "dual")


def _sJ(ops: SubdomainOperators, s: float) -> np.ndarray:
    """The diagonal of s J: robin_coefficient(s, tau) * tau * ML_Gamma.
    A finite s that overflows it is a SolverFailure to every reader."""
    sJ = robin_coefficient(s, ops.grid.tau) * ops.grid.tau * ops.lumped_gamma
    if not np.isfinite(sJ).all():
        raise SolverFailure(f"subdomain {ops.index} s J (s={s:g}) overflows")
    return sJ


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

    def __post_init__(self):
        # written so that nan fails too
        if not 0.0 < self.s < math.inf:
            raise ValueError("Robin parameter s must be finite and positive")
        if not self.tol >= 0:
            raise ValueError("tol must be nonnegative")
        # bool is an Integral, and True would run one iteration
        if isinstance(self.max_iter, bool) or \
                not isinstance(self.max_iter, numbers.Integral):
            raise ValueError("max_iter must be an integer")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


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


def pr_step(solvers, chi_sum: InterfaceSignal, lam: InterfaceSignal, s: float,
            resolvents) -> tuple[InterfaceSignal, InterfaceSignal]:
    """One Peaceman-Rachford double sweep on the interface.

    The step is carried on the Robin datum lam = (sJ - S2) eta + chi,
    where chi = chi_1 + chi_2, and costs one apply of each resolvent
    R_i = (sJ + S_i)^-1:

        eta half = R1 lam,
        mu       = (sJ - S1) eta half + chi = 2 sJ eta half - lam + chi,
        eta next = R2 mu,
        lam next = (sJ - S2) eta next + chi = 2 sJ eta next - mu + chi.

    Each reflection (sJ - S_i) x = 2 sJ x - (sJ + S_i) x takes
    (sJ + S_i) x from the right-hand side of the resolvent that gave x
    (Lions & Mercier, SIAM J. Numer. Anal. 16, 1979), so S_i is never
    applied.  ``resolvents`` is the pair (R1, R2) from robin_resolvent,
    which the caller makes for the number of steps it will take.
    Returns (eta next, lam next).  chi enters only here, in the affine
    part of the map: with chi = 0 the map is linear and its fixed point
    is zero; in general fixed points solve (S1 + S2) eta = chi.
    """
    if lam.kind != "dual" or chi_sum.kind != "dual":
        raise ValueError("the Robin datum and the sources are dual signals")
    R1, R2 = resolvents
    two_sJ = 2.0 * _sJ(solvers[0].ops, s)
    chi = chi_sum.values

    eta_half = R1(lam.values)
    mu = two_sJ * eta_half - lam.values + chi
    eta_next = R2(mu)
    lam_next = two_sJ * eta_next - mu + chi
    return InterfaceSignal(eta_next, "primal"), InterfaceSignal(lam_next, "dual")


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

def _pr_iterates(solvers, s: float, max_iter: int):
    """Peaceman-Rachford iterates from eta^0 = 0, whose Robin datum is
    chi = chi_1 + chi_2 itself.  Both resolvents, made for max_iter
    applies (robin_resolvent), and chi are made at once, before the
    first iterate is drawn; nothing else in a run reads chi."""
    resolvents = [robin_resolvent(solver, s, max_iter) for solver in solvers]
    chi_1, chi_2 = map(interface_source, solvers)
    chi_sum = chi_1 + chi_2

    def iterates():
        lam = chi_sum
        while True:
            eta, lam = pr_step(solvers, chi_sum, lam, s, resolvents)
            yield eta
    return iterates()


def _rr_iterates(solvers, s: float, max_iter: int):
    """Traces of u2 after each Robin sweep; the initial sweep state is
    built at once, before the first iterate is drawn.  The sweep reads
    no interface source."""
    def iterates(state):
        while True:
            state = robin_sweep(solvers, state, s)
            yield solvers[1].trace(state.u2)
    return iterates(init_robin_sweep(solvers, s))


def _run_iteration(solvers, config: IterationConfig, make_iterates,
                   references: InterfaceSignal | None):
    """Shared driver: draw interface iterates, track diagnostics.

    ``make_iterates`` (_pr_iterates or _rr_iterates) gives the iterates
    eta^1, eta^2, ... (eta^0 = 0); at most config.max_iter of them are
    drawn, and the stopping rule reads only the increments.  When
    ``references``, a reference trace eta_ref such as the monolithic
    one (lab.references_from_monolithic), is given, the report also
    holds, per iteration, the subdomain X-norm errors of the
    interface-parametrized fields, the monotone gaps against eta_ref,
    and the Steklov-Poincare residual pushed through the resolvent
    (sJ + S2)^-1 (the iteration's own metric).  These are forms of
    eta_ref - eta^n (_track_block), computed for a block of iterates at
    once, with one apply of the subdomain-2 resolvent.  The run's two
    resolvents (robin_resolvent, for config.max_iter applies) are made
    first; the Peaceman-Rachford iterates take the same ones, kept by s.
    If both solvers then hold SteklovForms (both were probed,
    _tracks_on_forms), every tracked quantity is read from them with no
    subdomain solve, and a block holds BLOCK_VALUES interface values,
    n_steps^2 * n_interface per iterate (block_width of that); otherwise
    each subdomain makes a homogeneous Dirichlet solve and a flux
    recovery per block of SubdomainSolver.block_width() iterates.
    Everything a block reads is made before the first iterate is drawn.
    A block is tracked when full, and the last, a shorter one, at the end.
    """
    ops = solvers[0].ops
    tau, Mg = ops.grid.tau, ops.M_gamma
    eta = InterfaceSignal(np.zeros((ops.grid.n_steps, ops.n_interface)), "primal")

    report = ConvergenceReport()
    track = references is not None
    if track:
        # made before the first iterate is drawn, so that every
        # iteration does the same work (perfbench pools later iterations);
        # both, so that any probe they make has kept its forms
        _, resolvent = [robin_resolvent(solver, config.s, config.max_iter)
                        for solver in solvers]
        on_forms = _tracks_on_forms(solvers)
        width = (solvers[0].block_width(ops.grid.n_steps ** 2
                                        * ops.n_interface) if on_forms else
                 min(solver.block_width() for solver in solvers))
        pending = []
        rows = (report.errors_1, report.gaps_1, report.errors_2,
                report.gaps_2, report.residuals)

        def flush():
            values = _track_block(solvers, resolvent, references, pending,
                                  on_forms)
            for value, row in zip(values, rows):
                row.extend(value.tolist())
            pending.clear()
    iterates = make_iterates(solvers, config.s, config.max_iter)

    for _, eta_next in zip(range(config.max_iter), iterates):
        inc = h_norm(eta_next - eta, Mg, tau)
        eta = eta_next
        report.increments.append(inc)

        if track:
            pending.append(eta.values)
            if len(pending) == width:
                flush()

        scale0 = report.increments[0]
        if not np.isfinite(inc) or (scale0 > 0 and inc > 1e6 * scale0):
            report.status = "diverged"
            break
        if inc <= config.tol:
            report.status = "converged"
            break
    if track and pending:
        flush()
    return eta, report


def _tracks_on_forms(solvers) -> bool:
    """Whether a run tracks on the SteklovForms: both solvers hold them
    once the run's resolvents are made."""
    return all(solver.forms is not None for solver in solvers)


def _track_block(solvers, resolvent, eta_ref: InterfaceSignal,
                 pending: list, on_forms: bool):
    """X-norm errors and gaps of both subdomains, and residuals, of a
    block of iterates given as eta^n values; one array each, in the
    order errors_1, gaps_1, errors_2, gaps_2, residuals.

    With d = eta_ref - eta, the field of subdomain i at eta is
    u_i,ref - D_i d, where D_i is the homogeneous Dirichlet solve, and
    S_i eta_ref - S_i eta = S_i d, so chi cancels from every quantity:
    the error is ||D_i d||_X, gap_i = (S_i d) . d, and the residual
    (S1 + S2) eta - chi is -(S1 + S2) d, whose norm after
    ``resolvent``, (sJ + S2)^-1, is that of (S1 + S2) d.  Each
    subdomain's S_i d, gap and error come from _subdomain_forms on the
    path ``on_forms``, which also sets the block's width (_run_iteration).
    """
    ops = solvers[0].ops
    d = eta_ref.values - np.array(pending)
    out, flux = [], 0.0
    for solver in solvers:
        Sd, gap, err = _subdomain_forms(solver, d, on_forms)
        out += [err, gap]
        flux = flux + Sd
    precond = InterfaceSignal(resolvent(flux), "primal")
    return out + [h_norm(precond, ops.M_gamma, ops.grid.tau)]


def _subdomain_forms(solver: SubdomainSolver, d: np.ndarray, on_forms: bool):
    """S_i d, the gap (S_i d) . d and ||D_i d||_X, with D_i the
    homogeneous Dirichlet solve, of the block of traces d, shaped (m,
    n_steps, n_interface); the last two hold one value per trace.  On the
    forms (``on_forms``) they come from the solver's SteklovForms
    (_forms_x_norm) with no subdomain solve, otherwise from one Dirichlet
    solve of the block and its flux recovery (block_width() traces at
    most).  Tracking (_track_block) and acceptance criterion 5 call it.
    """
    if on_forms:
        Sd = solver.forms.steklov.apply(d)
        err = _forms_x_norm(solver, d, Sd)
    else:
        u = solver.dirichlet_solve(eta=InterfaceSignal(d))
        Sd = solver.flux_recovery(u).values
        err = step_norm(solver.ops.MK, u.values[:, 1:], solver.ops.grid.tau)
    return Sd, np.sum(Sd * d, axis=(-2, -1)), err


def run_pr(solvers, config: IterationConfig,
           references: InterfaceSignal | None = None):
    """Run the interface Peaceman-Rachford iteration.

    Returns (eta, report); see _run_iteration for the diagnostics,
    tracked against ``references``, a reference trace, when given.  An
    iteration is the two resolvent applies of pr_step.  Where probing
    pays for config.max_iter applies (robin_resolvent), the run first
    probes both resolvents, ceil(n_interface / _probe_width()) streamed
    Robin solves each, one at nx <= 32 and 8 at nx = 64 (none if the
    solvers were probed already), and an iteration then makes no
    subdomain solve; otherwise it makes two Robin solves.
    Tracking costs no subdomain solve where both solvers hold
    SteklovForms (the X norm is read from their Hankel blocks; blocks of
    iterates sized by interface values, 17 / 8 / 4 iterates at
    nx = 16 / 32 / 64 and 16 steps), and one homogeneous Dirichlet solve
    and one flux recovery per subdomain and block of block_width()
    iterates otherwise.
    """
    return _run_iteration(solvers, config, _pr_iterates, references)


def run_rr(solvers, config: IterationConfig,
           references: InterfaceSignal | None = None):
    """Run the PDE-level Robin-Robin sweep.

    The interface iterate is the trace of the second subdomain's Robin
    solution; it coincides with the Peaceman-Rachford iterate of run_pr
    to roundoff, so the two drivers are interchangeable.  A sweep is two
    Robin solves with loads; tracking is that of run_pr.
    """
    return _run_iteration(solvers, config, _rr_iterates, references)


def run_equivalence(solvers, s: float, n_iterations: int):
    """Run the interface and the PDE-level iterations in lockstep.

    Returns a list of per-iteration maximum relative discrepancies
    between the PR interface iterate and the trace of the Robin-Robin
    u2, measured in the interface L2 norm.
    """
    tau, Mg = solvers[0].ops.grid.tau, solvers[0].ops.M_gamma
    discrepancies = []
    for _, eta, tr in zip(range(n_iterations),
                          _pr_iterates(solvers, s, n_iterations),
                          _rr_iterates(solvers, s, n_iterations)):
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
    The column is kept once, stacked for apply: from the last lag to
    lag 0, each block transposed.  ``first`` is copied into that layout
    unless it is already the first column of such a stacked array (as
    inverse makes it), which is then kept as it is.
    """

    def __init__(self, first: np.ndarray):
        first = np.asarray(first, dtype=float)
        self.shape = first.shape
        n_steps, n_out, n_in = first.shape
        self._stacked = np.ascontiguousarray(
            first[::-1].transpose(0, 2, 1)).reshape(n_steps * n_in, n_out)
        # window j of a chunk of apply starting at step lo holds the
        # padded steps lo + j .. lo + j + n_steps - 1: this index + lo,
        # one row per step of the widest chunk
        rows = min(n_steps, max(1, APPLY_WINDOW_VALUES // (n_steps * n_in)))
        self._windows = np.add.outer(np.arange(rows), np.arange(n_steps))

    @property
    def first(self) -> np.ndarray:
        """The first block column, (n_steps, n_out, n_in); a view."""
        n_steps, n_out, n_in = self.shape
        return self._stacked.reshape(n_steps, n_in, n_out)[::-1] \
            .transpose(0, 2, 1)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """y_k = sum_{j <= k} first[k - j] x_j for x shaped
        ([m,] n_steps, n_in).  Each chunk of output steps lo .. hi - 1 is
        one product: the windows x_{k - hi + 1}, ..., x_k (zero before
        step 1) times the last hi lags of the stacked column.  A chunk
        gathers at most APPLY_WINDOW_VALUES input values (and at least
        one step), so the temporary does not grow with n_steps squared.
        Where one chunk would multiply SPLIT_APPLY_VALUES values or more,
        chunks are at most half the steps, so that the first skips the
        zero windows above step hi.
        """
        x = np.asarray(values, dtype=float)
        n_steps, n_out, n_in = self.shape
        batch = x.shape[:-2]
        padded = np.zeros(batch + (2 * n_steps - 1, n_in))
        padded[..., n_steps - 1:, :] = x
        y = np.empty(batch + (n_steps, n_out))
        per_step = max(1, math.prod(batch)) * n_steps * n_in
        chunk = max(1, APPLY_WINDOW_VALUES // per_step)
        if per_step * n_steps * n_out >= SPLIT_APPLY_VALUES:
            chunk = min(chunk, -(-n_steps // 2))
        for lo in range(0, n_steps, chunk):
            hi = min(lo + chunk, n_steps)
            steps = self._windows[:hi - lo, n_steps - hi:] + lo
            windows = np.take(padded, steps, axis=-2).reshape(
                batch + (hi - lo, hi * n_in))
            y[..., lo:hi, :] = windows @ self._stacked[(n_steps - hi) * n_in:]
            del windows     # freed before the next chunk is gathered
        return y

    def dense(self) -> np.ndarray:
        """The (n_steps n_out) x (n_steps n_in) matrix: the first block
        column tiled down the block diagonals.  Column (k * n_in + g) is
        the flattened output for the unit input at step k + 1, dof g
        (time-major flattening)."""
        n_steps, n_out, n_in = self.shape
        column = self.first.reshape(n_steps * n_out, n_in)
        out = np.zeros((n_steps * n_out, n_steps * n_in))
        for k in range(n_steps):
            out[k * n_out:, k * n_in:(k + 1) * n_in] = \
                column[:(n_steps - k) * n_out]
        return out

    def inverse(self, shift=0.0) -> "BlockToeplitz":
        """The inverse of the map plus the pairing with diagonal
        ``shift``, added to lag 0: causal and time-invariant too.  The
        map itself is neither copied nor changed.

        Block forward substitution with the inverted diagonal block
        (Golub & Van Loan, Matrix Computations, section 4.7): with A_k
        the blocks of the first column, A_0 shifted, Y_0 = A_0^-1 and
        Y_k = -A_0^-1 sum_{j=1..k} A_j Y_{k-j}, each sum one product of
        the lags side by side with the earlier Y_j stacked.  Y_k is
        written where the new map's stacked column holds lag k, so
        Y_{k-1}, ..., Y_0 lie stacked below it; each block is transposed
        in place at the end, and that array becomes the column.
        """
        n_steps, n_out, n_in = self.shape
        if n_out != n_in:
            raise ValueError("only a map with square blocks has an inverse")
        A = self.first
        A0 = A[0].copy()
        A0[np.diag_indices_from(A0)] += shift
        inv0 = np.linalg.inv(A0)
        lags = A[1:].transpose(1, 0, 2).reshape(n_out, -1)
        stacked = np.empty((n_steps * n_in, n_in))
        Y = stacked.reshape(self.shape)[::-1]       # Y[k], a view
        Y[0] = inv0
        for k in range(1, n_steps):
            Y[k] = -inv0 @ (lags[:, :k * n_in]
                            @ stacked[(n_steps - k) * n_in:])
        for block in Y:
            block[...] = block.T
        return BlockToeplitz(Y.transpose(0, 2, 1))       # keeps stacked


@dataclass
class SteklovForms:
    """What the first Robin probe of a subdomain, at s0, gives beyond its
    map R(s0) = (s0 J + S_i)^-1 (_first_probe).

    Both come from the probe's streamed steps; no field of it is kept.
    ``steklov`` is the s-independent column of S_i: the inverse of
    R(s0) less s0 J, written by _first_probe alone.  Every other
    resolvent is its inverse shifted by sJ, ``steklov.inverse(sJ)``
    (robin_trace_map), which neither copies nor changes it.  ``hankel``
    is the X-norm form of the probe's trace-to-field map, held as its
    2 n_steps - 1 interface blocks q(0), ..., q(2 n_steps - 2), side by
    side: row g, column p * n_interface + h holds q(p)[g, h].  With
    y = (s0 J + S_i) d the Robin datum of a trace d, the homogeneous
    Dirichlet field of d is the probe's field of y, and its X norm is a
    Hankel form in time of y less an interface term (_forms_x_norm).
    Tracking reads the forms where both solvers of a run keep them
    (_track_block).
    """

    s0: float
    steklov: BlockToeplitz
    hankel: np.ndarray


def _forms_x_norm(solver: SubdomainSolver, d: np.ndarray,
                  Sd: np.ndarray) -> np.ndarray:
    """||D d||_X, the X norm of the homogeneous Dirichlet field, of each
    trace of the block d, shaped (m, n_steps, n_interface), given
    Sd = S_i d, from the Hankel blocks of the solver's SteklovForms.

    With y = (s0 J + S_i) d, the Robin datum of the field,
    ||D d||_X^2 = sum_k [sum_{j, l <= k} y_j^T q(2k - j - l) y_l -
    alpha d_k^T s0J d_k] (_first_probe), and each bracket is
    tau u_k^T (M + K) u_k >= 0, so the sum over k does not cancel.  With
    Z[j, p] = y_j^T q(p), one product, the double sum of step k is
    sum_{l <= k} v[2k - l] . y_l, where v[t] = sum_{j <= k} Z[j, t - j]
    is built up one step at a time: O(n_steps^2 n_interface) work.
    The form squares the traces, and unlike h_norm it is not rescaled:
    at values near 1e300 it overflows and the norm reads nan (the gaps
    of _subdomain_forms inf), near 1e-300 it underflows to 0.
    """
    forms, grid = solver.forms, solver.ops.grid
    sJ0 = _sJ(solver.ops, forms.s0)
    y = sJ0 * d + Sd
    m, n_steps, n_g = y.shape
    n_lags = 2 * n_steps - 1
    Z = (y.reshape(-1, n_g) @ forms.hankel).reshape(m, n_steps, n_lags, n_g)
    alpha = 1.0 + grid.tau * (1.0 - grid.theta)
    steps = -alpha * np.sum(sJ0 * d * d, axis=2)
    v = np.zeros((m, n_lags, n_g))
    for k in range(n_steps):
        v[:, k:] += Z[:, k, :n_lags - k]
        steps[:, k] += np.einsum("mtg,mtg->m", v[:, k:2 * k + 1],
                                 y[:, k::-1])
    return np.sqrt(np.maximum(np.sum(steps, axis=1), 0.0))


def _probe_width(solver: SubdomainSolver) -> int:
    """Unit data per Robin solve of a first probe: a streamed solve holds
    about four step arrays of n_dofs values per datum (its data, the
    right-hand side, the solution and the one before), so block_width
    of 4 n_dofs (BLOCK_VALUES): every datum at nx <= 32, 8 at nx = 64."""
    return solver.block_width(4 * solver.ops.n_dofs)


def _first_probe(solver: SubdomainSolver, s: float) -> BlockToeplitz:
    """Probe (sJ + S_i)^-1 by Robin solves of the unit dual signals at
    step 1, _probe_width() signals per solve, streamed step by step with
    no field kept, and keep the solver's SteklovForms.

    The probe field at step a + 1 is F_a = Phi^a A_R^-1 E / tau, with A_R
    the Robin step matrix at s, E the interface embedding and
    Phi = A_R^-1 C.  A_R and C are symmetric, so Phi^T A_R = C and
    tau F_a^T A_R F_b = R_{a+b}, tau F_a^T C F_b = R_{a+b+1}, symmetric
    blocks: the lags of the probed map below N = n_steps, and beyond.
    Each step F_k of a block J of data, as the solve hands it over, gives
    three things to one array of the 2N lags: its trace, lag k; the
    block's own R_{2k} = tau F_k^T A_R F_k and R_{2k-1} =
    tau F_{k-1}^T C F_{k-1}, from the right-hand side A_R F_k it solved,
    which is C F_{k-1} beyond step 1, where they are N or more (and
    R_{2N-1} from C F_{N-1} at the end); and R_{N+k}[g, h] =
    tau (C F_{N-1})^T F_k for the data g of the earlier blocks, whose
    tau C F_{N-1} are the only fields held beside the block's last two
    steps.  Symmetry gives the rest.  The solve hands each step over in
    the Robin factor's band order (SubdomainSolver.robin_solve): the
    trace is read at the interface's rows of it, and the pairings and
    the products with C, the solver's C in that order, do not depend on
    the order, so they stay in it.  A non-finite step propagates into
    the lags, so they are checked once, when symmetry has filled them
    all: before it, lags[g, r >= N, h] of a later block's g are unset.
    With alpha = 1 + tau (1 - theta) and beta = tau theta - 1,
    M + K = alpha A_R + beta C - alpha (s / tau) E ML_Gamma E^T, so the
    X-norm form of the fields is q(r) = alpha R_r + beta R_{r+1} in
    time, less an interface term.
    The lags below N are the map, and all of them then become the Hankel
    blocks in place, in one pass over the lags with one temporary.  S_i
    is the map's inverse less sJ, subtracted in place: its only write.
    """
    ops, width, full = solver.ops, _probe_width(solver), solver._full
    grid = ops.grid
    n_steps, n_g = grid.n_steps, ops.n_interface
    iface = full.rows(slice(ops.n_interior, None))
    tau = grid.tau
    C_last = np.empty((n_g, ops.n_dofs))        # tau C F_{N-1}
    lags = np.empty((n_g, 2 * n_steps, n_g))    # R_r[g, h] at [g, r, h]
    prev = None                                 # F_{k-1} of the block
    for lo in range(0, n_g, width):
        J = slice(lo, min(lo + width, n_g))

        def step(k, b, x):
            nonlocal prev
            lags[:, k, J] = x[iface]
            lags[:lo, n_steps + k, J] = C_last[:lo] @ x
            if 2 * k >= n_steps:
                lags[J, 2 * k, J] = tau * (x.T @ b)
            if 2 * k > n_steps:
                lags[J, 2 * k - 1, J] = tau * (prev.T @ b)
            prev = x
        units = np.zeros((J.stop - lo, n_steps, n_g))
        units[:, 0, J] = np.eye(J.stop - lo)
        solver.robin_solve(s, lam=InterfaceSignal(units, "dual"), step=step)
        C_last[J] = tau * (full.C @ prev).T
        lags[J, -1, J] = C_last[J] @ prev
    del C_last
    g, h = np.triu_indices(n_g, 1)
    lags[h, n_steps:, g] = lags[g, n_steps:, h]
    if not np.all(np.isfinite(lags)):       # every entry written by now
        raise SolverFailure(
            f"non-finite solution from {solver._robin_factor(s).label}")
    robin_map = BlockToeplitz(np.swapaxes(lags[:, :n_steps], 0, 1))
    alpha = 1.0 + grid.tau * (1.0 - grid.theta)
    beta = grid.tau * grid.theta - 1.0
    # every R_{r+1} is read before R_r is overwritten by q(r); the map
    # holds its own copy of R_0 .. R_{N-1}
    later = beta * lags[:, 1:]
    lags[:, :-1] *= alpha
    lags[:, :-1] += later
    del later       # freed before the inverse's arrays are made
    steklov = robin_map.inverse()
    lag0 = steklov.first[0]         # the one place S_i is written
    lag0[np.diag_indices_from(lag0)] -= _sJ(ops, s)
    # q(0 .. 2N - 2) side by side, a view: R_{2N-1} stays, unread
    solver.forms = SteklovForms(
        s, steklov, lags.reshape(n_g, -1)[:, :(2 * n_steps - 1) * n_g])
    return robin_map


def robin_trace_map(solver: SubdomainSolver, s: float) -> BlockToeplitz:
    """The resolvent (sJ + S_i)^-1 of one subdomain as a BlockToeplitz.

    At the first s asked of a solver it is probed (_first_probe), which
    costs ceil(n_interface / _probe_width()) streamed Robin solves, keeps
    no field and keeps the solver's SteklovForms; at every later s it is
    forms.steklov.inverse(sJ), which copies and changes nothing of S_i
    and makes no subdomain solve.  Either way it is kept in
    ``solver.robin_maps`` by s, and an apply costs no solve.
    """
    key = float(s)
    if not 0.0 < key < math.inf:
        raise ValueError("Robin parameter s must be finite and positive")
    if key not in solver.robin_maps:
        solver.robin_maps[key] = (
            _first_probe(solver, key) if solver.forms is None else
            solver.forms.steklov.inverse(_sJ(solver.ops, key)))
    return solver.robin_maps[key]


def _map_pays(solver: SubdomainSolver, n_applies: int) -> bool:
    """Whether ``n_applies`` one-column applies of a map at a new s save
    more than it costs, in one-column Robin solves.  An apply saves
    1 - n_steps / RESOLVENT_STEPS of the Robin solve it replaces, so
    at RESOLVENT_STEPS steps or more a map never pays.  On a probed
    solver the map costs one inverse, about n_interface applies, that
    is n_interface * n_steps / RESOLVENT_STEPS; on one not yet probed
    the probe, n_interface, comes on top, and its inverse gives S_i."""
    ops = solver.ops
    step_share = ops.grid.n_steps / RESOLVENT_STEPS
    cost = ops.n_interface * step_share
    if solver.forms is None:
        cost += ops.n_interface
    return n_applies * (1.0 - step_share) > cost


def robin_resolvent(solver: SubdomainSolver, s: float, n_applies: int):
    """The resolvent (sJ + S_i)^-1 of one subdomain for a run of about
    ``n_applies`` one-column applies, as a function from dual values
    ([m,] n_steps, n_interface) to primal values.

    It is the apply of robin_trace_map when the applies save more than
    the map costs (_map_pays), and a Robin solve per apply, which needs
    no probe, otherwise.  The first map of a solver costs its probe; a
    later one only an inverse, so the choice reads the sizes and whether
    the solver was probed before: a solver probed by an earlier run
    takes the map for fewer applies than a fresh one.
    """
    if _map_pays(solver, n_applies):
        return robin_trace_map(solver, s).apply
    return lambda values: solve_robin_resolvent(
        solver, InterfaceSignal(values, "dual"), s).values


def check_dense_columns(n_steps: int, n_interface: int) -> None:
    """ValueError when n_steps * n_interface, the side of a densely
    probed interface operator, exceeds DENSE_COLUMN_GUARD."""
    n_cols = n_steps * n_interface
    if n_cols > DENSE_COLUMN_GUARD:
        raise ValueError(f"dense probing guard exceeded: n_steps * "
                         f"n_interface = {n_cols} > {DENSE_COLUMN_GUARD}")


def assemble_dense(apply_fn, n_steps: int, n_interface: int) -> np.ndarray:
    """Dense matrix of a causal, time-invariant linear interface operator.

    The operator is assumed to act on signals with uniform steps and
    zero initial data, as every Steklov-Poincare operator and interface
    pairing of the package does, so it is a BlockToeplitz.  Only the
    n_interface unit primal signals at step 1 are probed, as one block
    of signals in one call of ``apply_fn``; their outputs are the first
    block column, and the result is its BlockToeplitz.dense().
    DENSE_COLUMN_GUARD bounds n_steps * n_interface, the side of the
    square output (check_dense_columns).
    """
    check_dense_columns(n_steps, n_interface)
    units = np.zeros((n_interface, n_steps, n_interface))
    units[:, 0] = np.eye(n_interface)
    out = apply_fn(InterfaceSignal(units, "primal")).values
    return BlockToeplitz(np.moveaxis(out, 0, -1)).dense()


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
    A finite s that overflows J_0 is a SolverFailure, as in
    interface_gram.
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
        if not np.all(np.isfinite(J_0)):
            raise SolverFailure(f"s J (s={s:g}) overflows")
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
