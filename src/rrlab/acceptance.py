"""Built-in acceptance suite.

Ten property-based criteria at desk scale, each with a pinned tolerance.
``rrlab check`` runs them all and prints one pass/fail line per
criterion; the pytest acceptance module drives the same functions.
Expensive shared artifacts (the desk problem, its monolithic reference,
the spectral portrait of its dense-probed interface operators, converged
runs per Robin parameter) are computed once and cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dense import dense_schur_complement
from .fracnorm import (derivative_multiplier, padded_extension,
                       parabolic_coercivity, random_smooth_field)
from .interface import (IterationConfig, SteklovOperator, _subdomain_forms,
                        assemble_dense, h_norm, interface_gram, pr_step,
                        robin_resolvent, run_equivalence, run_pr,
                        solve_robin_resolvent)
from .lab import (ScenarioConfig, default_problem, field_error_norm,
                  glue_fields, least_squares_order,
                  references_from_monolithic, restrict_field,
                  run_mms_spatial, run_mms_temporal, setup_problem,
                  spec_from_scenario, spectral_portrait)
from .subsolve import InterfaceSignal, SpaceTimeField

__all__ = ["CriterionResult", "DeskArtifacts", "run_acceptance",
           "ALL_CRITERIA", "S_VALUES"]

S_VALUES = (0.1, 1.0, 10.0)
TOL = 1e-10
MAX_ITER = 200


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.number:2d} ({self.name}): {self.detail}"


class DeskArtifacts:
    """Shared lazily computed artifacts of the default desk problem."""

    def __init__(self, seed: int = 0):
        self.seed = seed

    @cached_property
    def setup(self):
        return setup_problem(default_problem())

    @cached_property
    def fine_setup(self):
        """The desk problem at nx = 32, for refinement checks."""
        return setup_problem(default_problem(nx=32))

    @cached_property
    def refs(self):
        return references_from_monolithic(self.setup)

    @cached_property
    def runs(self):
        """Tracked runs per Robin parameter, at tol 0: 200 iterations,
        or fewer where an iterate repeats exactly."""
        out = {}
        for s in S_VALUES:
            cfg = IterationConfig(s=s, tol=0.0, max_iter=MAX_ITER)
            out[s] = run_pr(self.setup.solvers, cfg, references=self.refs)
        return out

    @cached_property
    def spectral_rows(self):
        return {r.s: r for r in spectral_portrait(self.setup, S_VALUES)}

    @cached_property
    def lab_1d(self):
        """The desk problem in 1-D, on 16 cells."""
        return setup_problem(spec_from_scenario(ScenarioConfig(dimension=1)))


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

def criterion_1_convergence(art: DeskArtifacts) -> CriterionResult:
    """X-norm errors fall below 1e-8 within 200 iterations, s in {.1,1,10}."""
    details = []
    ok = True
    for s in S_VALUES:
        eta, rep = art.runs[s]
        errs = np.maximum(rep.errors_1, rep.errors_2)
        hits = np.flatnonzero(errs <= 1e-8)
        if hits.size:
            details.append(f"s={s:g}: n={hits[0] + 1}")
        else:
            ok = False
            details.append(f"s={s:g}: err={errs[-1]:.2e} after "
                           f"{rep.n_iterations} iterations")
    return CriterionResult(1, "convergence to the monolithic solve", ok,
                           "; ".join(details))


def criterion_2_equivalence(art: DeskArtifacts) -> CriterionResult:
    """PDE-level and interface iterates agree to 1e-10 over 50 iterations."""
    disc = run_equivalence(art.setup.solvers, 1.0, 50)
    worst = max(disc)
    return CriterionResult(2, "PDE/interface equivalence", worst <= 1e-10,
                           f"max relative discrepancy {worst:.2e} over 50 "
                           "iterations")


def criterion_3_schur_oracle(art: DeskArtifacts) -> CriterionResult:
    """Probed operators match dense space-time Schur complements (1D)."""
    setup = setup_problem(spec_from_scenario(ScenarioConfig(
        dimension=1, nx=8, n_steps=4, source="zero")))
    worst = 0.0
    for solver, ops in ((setup.solver_1, setup.ops_1),
                        (setup.solver_2, setup.ops_2)):
        probed = assemble_dense(SteklovOperator(solver).apply, 4,
                                ops.n_interface)
        schur = dense_schur_complement(ops)
        rel = np.abs(probed - schur).max() / np.abs(schur).max()
        worst = max(worst, rel)
    return CriterionResult(3, "dense Schur complement oracle", worst <= 1e-10,
                           f"max relative entry deviation {worst:.2e}")


def criterion_4_bijectivity(art: DeskArtifacts) -> CriterionResult:
    """sJ + S_i and S1 + S2 have positive minimum singular values; the
    resolvent round-trips to 1e-10 on random right-hand sides."""
    rows = art.spectral_rows
    sv_msgs = []
    ok = True
    for s in S_VALUES:
        r = rows[s]
        sv_msgs.append(f"s={s:g}: sv_min(sJ+S)=({r.sv_min_sJ_S1:.3e}, "
                       f"{r.sv_min_sJ_S2:.3e})")
        ok = ok and r.sv_min_sJ_S1 > 0 and r.sv_min_sJ_S2 > 0
    sv_sum = rows[S_VALUES[0]].sv_min_S1_S2
    ok = ok and sv_sum > 0

    rng = np.random.default_rng(art.seed)
    setup = art.setup
    worst = 0.0
    for s in S_VALUES:
        for solver in setup.solvers:
            ops = solver.ops
            S = SteklovOperator(solver)
            # ten round trips as one block of right-hand sides
            rhs = InterfaceSignal(rng.standard_normal(
                (10, ops.grid.n_steps, ops.n_interface)), "dual")
            eta = solve_robin_resolvent(solver, rhs, s)
            recon = interface_gram(eta, ops, s) + S.apply(eta)
            err = (np.abs(recon.values - rhs.values).max(axis=(1, 2))
                   / np.abs(rhs.values).max(axis=(1, 2)))
            worst = max(worst, err.max())
    ok = ok and worst <= 1e-10
    detail = (f"sv_min(S1+S2)={sv_sum:.3e}; round-trip max rel err "
              f"{worst:.2e}; " + "; ".join(sv_msgs))
    return CriterionResult(4, "bijectivity of sJ+S_i and S1+S2", ok, detail)


def criterion_5_monotonicity(art: DeskArtifacts) -> CriterionResult:
    """<S mu, mu> / ||F mu||_X^2 stays positive and refinement-stable."""
    def min_ratio(setup, i):
        solver = setup.solvers[i - 1]
        ops = solver.ops
        rng = np.random.default_rng(art.seed + i)
        # a hundred samples, drawn at once and solved in blocks
        mus = rng.standard_normal((100, ops.grid.n_steps, ops.n_interface))
        worst = np.inf
        width = solver.block_width()
        for lo in range(0, len(mus), width):
            _, gap, x_norm = _subdomain_forms(solver, mus[lo:lo + width],
                                              on_forms=False)
            worst = min(worst, (gap / x_norm ** 2).min())
        return worst

    ok = True
    details = []
    for i in (1, 2):
        coarse = min_ratio(art.setup, i)
        fine = min_ratio(art.fine_setup, i)
        drift = fine / coarse
        ok = ok and coarse > 0 and fine > 0 and 0.5 <= drift <= 2.0
        details.append(f"i={i}: min ratio {coarse:.3e} -> {fine:.3e} "
                       f"(drift {drift:.2f}x)")
    return CriterionResult(5, "monotonicity with quadratic lower bound", ok,
                           "; ".join(details))


def criterion_6_vanishing_gap(art: DeskArtifacts) -> CriterionResult:
    """Monotone gaps stay >= -1e-12 and end below 1e-10."""
    ok = True
    details = []
    for s in S_VALUES:
        eta, rep = art.runs[s]
        g1, g2 = np.array(rep.gaps_1), np.array(rep.gaps_2)
        ok = ok and g1.min() >= -1e-12 and g2.min() >= -1e-12
        ok = ok and g1[-1] <= 1e-10 and g2[-1] <= 1e-10
        details.append(f"s={s:g}: min gap {min(g1.min(), g2.min()):.1e}, "
                       f"final {max(g1[-1], g2[-1]):.1e}")
    return CriterionResult(6, "nonnegative vanishing monotone gap", ok,
                           "; ".join(details))


def criterion_7_contraction(art: DeskArtifacts) -> CriterionResult:
    """rho < 1 for all tested s and the observed reduction factor over
    the last 10 iterations of a homogeneous run matches rho within 10%."""
    setup = art.setup
    ops = setup.ops_1
    n_steps, n_g = ops.grid.n_steps, ops.n_interface
    chi0 = InterfaceSignal(np.zeros((n_steps, n_g)), "dual")
    rng = np.random.default_rng(art.seed)
    ok = True
    details = []
    for s in S_VALUES:
        rho = art.spectral_rows[s].rho
        ok = ok and rho < 1.0
        eta = InterfaceSignal(rng.standard_normal((n_steps, n_g)))
        # pr_step carries the Robin datum (sJ - S2) eta + chi
        lam = (interface_gram(eta, ops, s)
               - SteklovOperator(setup.solver_2).apply(eta) + chi0)
        norms = []
        n0 = h_norm(eta, ops.M_gamma_dense, ops.grid.tau)
        resolvents = [robin_resolvent(solver, s, 400)
                      for solver in setup.solvers]
        for _ in range(400):
            eta, lam = pr_step(setup.solvers, chi0, lam, s, resolvents)
            norms.append(h_norm(eta, ops.M_gamma_dense, ops.grid.tau))
            if norms[-1] <= 1e-11 * n0:
                break
        observed = (norms[-1] / norms[-11]) ** 0.1
        match = abs(observed - rho) / rho
        ok = ok and match <= 0.10
        details.append(f"s={s:g}: rho={rho:.4f}, observed={observed:.4f} "
                       f"({100 * match:.1f}% off)")
    return CriterionResult(7, "spectral contraction", ok, "; ".join(details))


def criterion_8_coercivity(art: DeskArtifacts) -> CriterionResult:
    """Exact multiplier identity to 1e-12; positive coercivity ratios."""
    setup = art.lab_1d
    ops = setup.ops_1
    tau = ops.grid.tau
    rng = np.random.default_rng(art.seed)
    phi = 0.1

    worst_identity = 0.0
    for _ in range(20):
        vals = rng.standard_normal((ops.grid.n_steps + 1, ops.n_dofs))
        vals[0] = 0.0
        rep = parabolic_coercivity(ops, SpaceTimeField(vals), phi)
        window = padded_extension(vals, 8, "zero")
        U = np.fft.fft(window, axis=0)
        nw = window.shape[0]
        absw = np.abs(derivative_multiplier(nw, tau))
        energy = np.real(np.einsum("mi,ij,mj->m", np.conj(U),
                                   ops.M.toarray(), U))
        oracle = np.sin(phi) * tau / nw * np.sum(absw * energy)
        worst_identity = max(worst_identity,
                             abs(rep.temporal_pairing - oracle) / abs(oracle))

    min_ratio = np.inf
    for _ in range(50):
        u = random_smooth_field(setup.mesh, setup.dec, ops, rng)
        rep = parabolic_coercivity(ops, u, phi)
        min_ratio = min(min_ratio, rep.ratio_full)

    ok = worst_identity <= 1e-12 and min_ratio > 0
    return CriterionResult(
        8, "coercivity machinery", ok,
        f"multiplier identity max rel err {worst_identity:.2e}; "
        f"min ratio over 50 smooth fields {min_ratio:.3e}")


def criterion_9_mms_orders(art: DeskArtifacts) -> CriterionResult:
    """Observed orders within 0.2 of (2, 1) for theta=1, (2, 2) for 1/2."""
    ok = True
    details = []
    for theta, t_order in ((1.0, 1.0), (0.5, 2.0)):
        sp_rows = run_mms_spatial(theta)
        t_rows = run_mms_temporal(theta)
        p_space = least_squares_order([r.h for r in sp_rows],
                                      [r.l2_error for r in sp_rows])
        p_time = least_squares_order([r.tau for r in t_rows],
                                     [r.l2_error for r in t_rows])
        ok = ok and abs(p_space - 2.0) <= 0.2 and abs(p_time - t_order) <= 0.2
        details.append(f"theta={theta:g}: space {p_space:.2f} (want 2), "
                       f"time {p_time:.2f} (want {t_order:g})")
    return CriterionResult(9, "manufactured-solution orders", ok,
                           "; ".join(details))


def criterion_10_gluing(art: DeskArtifacts) -> CriterionResult:
    """Subassembly identities exact; glued converged pair has a small
    monolithic residual."""
    setup = art.setup
    dec = setup.dec
    glob = setup.global_ops
    R1, R2 = dec.restriction_matrix(1), dec.restriction_matrix(2)
    Ksum = R1.T @ setup.ops_1.K @ R1 + R2.T @ setup.ops_2.K @ R2
    Msum = R1.T @ setup.ops_1.M @ R1 + R2.T @ setup.ops_2.M @ R2
    k_err = abs(Ksum - glob.K).max() / abs(glob.K).max()
    m_err = abs(Msum - glob.M).max() / abs(glob.M).max()

    # exact round trip through restriction and gluing
    u_ref = setup.mono.solve()
    reglued = glue_fields(restrict_field(u_ref, dec, 1),
                          restrict_field(u_ref, dec, 2), dec)
    roundtrip = np.abs(reglued.values - u_ref.values).max()

    # monolithic residual of the glued converged pair, measured in the
    # solution metric (pushed through the monolithic solve, this is the
    # X-norm distance to the monolithic solution)
    eta, rep = art.runs[1.0]
    u1 = setup.solver_1.dirichlet_solve(eta=eta, loads=setup.ops_1.loads)
    u2 = setup.solver_2.dirichlet_solve(eta=eta, loads=setup.ops_2.loads)
    glued = glue_fields(u1, u2, dec)
    resid = field_error_norm(glued, u_ref, glob)

    ok = (k_err <= 1e-12 and m_err <= 1e-12 and roundtrip == 0.0
          and resid <= 10 * TOL)
    return CriterionResult(
        10, "discrete gluing", ok,
        f"subassembly rel errors ({k_err:.1e}, {m_err:.1e}); "
        f"restrict/glue roundtrip {roundtrip:.1e}; "
        f"glued monolithic defect {resid:.2e} (cap {10 * TOL:.0e})")


ALL_CRITERIA = (
    criterion_1_convergence, criterion_2_equivalence,
    criterion_3_schur_oracle, criterion_4_bijectivity,
    criterion_5_monotonicity, criterion_6_vanishing_gap,
    criterion_7_contraction, criterion_8_coercivity,
    criterion_9_mms_orders, criterion_10_gluing,
)


def run_acceptance(seed: int = 0, verbose: bool = True) -> int:
    """Run every criterion; print one line each; return 0 or 4."""
    art = DeskArtifacts(seed=seed)
    all_ok = True
    for crit in ALL_CRITERIA:
        result = crit(art)
        all_ok = all_ok and result.passed
        if verbose:
            print(result.line(), flush=True)
    return 0 if all_ok else 4
