"""Experiment harness: reference solves, manufactured solutions,
scenario runner, and CSV reporting.

Scenarios are configured by flat ``key=value`` text files ('#' starts a
comment).  Every report echoes its full configuration, the seed, and a
version string, so a run can be reproduced from its output file alone.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import __version__
from .assembly import (GlobalOperators, SubdomainOperators, _ElementPass,
                       build_global_operators, build_subdomain_operators)
from .interface import (IterationConfig, SpectralRow,
                        assemble_dense, check_dense_columns,
                        robin_trace_map, run_equivalence, run_pr, run_rr,
                        spectral_analysis)
from .mesh import Decomposition, Mesh, ProblemSpec, build_mesh, decompose
from .subsolve import (InterfaceSignal, MonolithicSolver, SpaceTimeField,
                       SubdomainSolver, step_norm)

__all__ = [
    "ConfigError", "LabSetup", "setup_problem", "default_problem",
    "solve_monolithic", "restrict_field", "glue_fields", "global_trace",
    "references_from_monolithic", "field_error_norm", "mms_spec",
    "mms_exact_nodal", "run_mms_spatial", "run_mms_temporal",
    "least_squares_order", "spectral_portrait", "ScenarioConfig",
    "parse_config", "run_scenario", "ScenarioResult", "CsvReport",
]


class ConfigError(ValueError):
    """A scenario configuration could not be understood."""


# ---------------------------------------------------------------------------
# Problem setup bundles
# ---------------------------------------------------------------------------

@dataclass
class LabSetup:
    """Everything needed to run iterations on one problem."""

    spec: ProblemSpec
    mesh: Mesh
    dec: Decomposition
    ops_1: object
    ops_2: object
    global_ops: GlobalOperators
    solver_1: SubdomainSolver
    solver_2: SubdomainSolver
    mono: MonolithicSolver

    @property
    def solvers(self):
        return (self.solver_1, self.solver_2)


def setup_problem(spec: ProblemSpec) -> LabSetup:
    """Assemble mesh, decomposition, and all solvers for a spec.

    One element pass (rrlab.assembly) serves the decomposition and the
    three operator sets: the centroids, the diffusion, the element
    matrices, the source samples and the interface mass are made once.
    It is dropped when set-up returns.
    """
    mesh = build_mesh(spec)
    shared = _ElementPass(spec, mesh)
    dec = decompose(mesh, spec, _shared=shared)
    ops_1 = build_subdomain_operators(spec, mesh, dec, 1, _shared=shared)
    ops_2 = build_subdomain_operators(spec, mesh, dec, 2, _shared=shared)
    global_ops = build_global_operators(spec, mesh, dec, _shared=shared)
    return LabSetup(spec, mesh, dec, ops_1, ops_2, global_ops,
                    SubdomainSolver(ops_1), SubdomainSolver(ops_2),
                    MonolithicSolver(global_ops))


def default_problem(nx: int = 16, n_steps: int = 16,
                    theta: float = 1.0) -> ProblemSpec:
    """The desk-scale default, the problem of the ScenarioConfig
    defaults: unit square split at x = 1/2 with a diffusion jump (1
    left, 3 right) and a unit source, on an nx x nx mesh."""
    return spec_from_scenario(ScenarioConfig(nx=nx, ny=nx, n_steps=n_steps,
                                             theta=theta))


def solve_monolithic(setup: LabSetup) -> SpaceTimeField:
    """theta-scheme solve on the undecomposed mesh."""
    return setup.mono.solve()


# ---------------------------------------------------------------------------
# Restriction, gluing, and norms
# ---------------------------------------------------------------------------

def restrict_field(u: SpaceTimeField, dec: Decomposition, i: int) -> SpaceTimeField:
    """Restrict a monolithic field to subdomain i dof ordering."""
    return SpaceTimeField(dec.restrict(i, u.values))


def glue_fields(u1: SpaceTimeField, u2: SpaceTimeField,
                dec: Decomposition) -> SpaceTimeField:
    """Glue two subdomain fields into a monolithic field.

    The two interface traces must be equal: a pair whose traces differ
    (one that has not met the transmission condition) raises
    ValueError instead of being averaged.
    """
    free = dec.free
    n1 = dec.interior_1.size
    n2 = dec.interior_2.size
    trace = u1.values[:, n1:]
    if not np.array_equal(trace, u2.values[:, n2:]):
        raise ValueError("subdomain fields have different interface traces")
    out = np.zeros((u1.values.shape[0], free.size))
    out[:, np.searchsorted(free, dec.interior_1)] = u1.values[:, :n1]
    out[:, np.searchsorted(free, dec.interior_2)] = u2.values[:, :n2]
    out[:, np.searchsorted(free, dec.interface)] = trace
    return SpaceTimeField(out)


def global_trace(u: SpaceTimeField, dec: Decomposition) -> InterfaceSignal:
    """Interface trace of a monolithic field."""
    pos = np.searchsorted(dec.free, dec.interface)
    return InterfaceSignal(u.values[1:, pos].copy(), "primal")


def references_from_monolithic(setup: LabSetup) -> InterfaceSignal:
    return global_trace(solve_monolithic(setup), setup.dec)


def field_error_norm(u: SpaceTimeField, u_ref: SpaceTimeField,
                     ops: SubdomainOperators | GlobalOperators):
    """L2-in-time, H1-in-space norm of the difference of two fields on
    the dofs of ``ops``, with the Gram matrix M + K.  A block ``u`` is
    measured column by column against the one field ``u_ref``."""
    if u.values.shape[-2:] != u_ref.values.shape:
        raise ValueError("fields have mismatched shapes")
    d = u.values[..., 1:, :] - u_ref.values[1:]
    return step_norm(ops.MK, d, ops.grid.tau)


# ---------------------------------------------------------------------------
# Manufactured solutions
# ---------------------------------------------------------------------------

def mms_spec(dimension: int, nx: int, n_steps: int, theta: float,
             alpha: float = 1.0) -> ProblemSpec:
    """Problem whose exact solution is a product of sines in space and
    (1 - exp(-t)) in time; zero initial and boundary values hold by
    construction.  Constant diffusion keeps the source regular."""
    lap = alpha * dimension * np.pi ** 2

    def source(*coords_and_t):
        *coords, t = coords_and_t
        return (np.prod(np.sin(np.pi * np.array(coords)), axis=0)
                * (np.exp(-t) + lap * (1.0 - np.exp(-t))))
    return ProblemSpec(
        dimension=dimension, nx=nx, ny=nx if dimension == 2 else 0,
        interface_x=0.5, diffusion=alpha, source=source,
        horizon=1.0, n_steps=n_steps, theta=theta)


def mms_exact_nodal(mesh: Mesh, dof_nodes: np.ndarray,
                    times: np.ndarray) -> np.ndarray:
    """Exact manufactured solution sampled at nodes and times."""
    shape = np.prod(np.sin(np.pi * mesh.nodes[dof_nodes]), axis=1)
    return (1.0 - np.exp(-times))[:, None] * shape[None, :]


@dataclass(frozen=True)
class MmsRow:
    h: float
    tau: float
    l2_error: float
    x_error: float
    order: float      # pairwise observed order, nan on the first row


def _mms_row(spec: ProblemSpec, ops: GlobalOperators, e) -> MmsRow:
    """The row of the level ``spec`` with the L2 and X norms of its
    error e, over the steps; its order is set by _with_orders."""
    l2 = step_norm(ops.M, e, spec.tau)
    x = np.sqrt(l2 ** 2 + step_norm(ops.K, e, spec.tau) ** 2)
    return MmsRow(spec.length_x / spec.nx, spec.tau, l2, float(x), np.nan)


def _with_orders(rows: list[MmsRow], scale: str) -> list[MmsRow]:
    """The rows of a refinement study, each after the first with the
    observed order of its l2 error against the previous row's, over the
    refined ``scale`` ("h" or "tau")."""
    out = rows[:1]
    for prev, row in zip(rows, rows[1:]):
        ratio = getattr(prev, scale) / getattr(row, scale)
        out.append(replace(row, order=float(
            np.log(prev.l2_error / row.l2_error) / np.log(ratio))))
    return out


def run_mms_spatial(theta: float, levels=(4, 8, 16),
                    dimension: int = 2) -> list[MmsRow]:
    """Spatial refinement study against the exact solution.

    The time step is tied to the mesh (tau ~ h^2 for theta = 1,
    tau ~ h for theta = 1/2) so the temporal error refines at least as
    fast as the spatial one.
    """
    rows = []
    for nx in levels:
        n_steps = max(4, nx * nx // 4) if theta == 1.0 else max(4, nx)
        spec = mms_spec(dimension, nx, n_steps, theta)
        mesh = build_mesh(spec)
        ops = build_global_operators(spec, mesh, decompose(mesh, spec))
        u = MonolithicSolver(ops).solve()
        times = np.arange(1, n_steps + 1) * spec.tau
        exact = mms_exact_nodal(mesh, ops.dof_nodes, times)
        rows.append(_mms_row(spec, ops, u.values[1:] - exact))
    return _with_orders(rows, "h")


def run_mms_temporal(theta: float, steps=(4, 8, 16), ref_factor: int = 8,
                     nx: int = 16, dimension: int = 2) -> list[MmsRow]:
    """Temporal self-convergence study on a fixed mesh.

    Each step count is compared against a fine-step reference on the
    same mesh, which removes the spatial error floor and exposes the
    pure temporal order of the theta scheme.  Each step count must
    divide the reference's max(steps) * ref_factor steps (ValueError).
    """
    ref_steps = max(steps) * ref_factor
    spec_ref = mms_spec(dimension, nx, ref_steps, theta)
    mesh = build_mesh(spec_ref)
    dec = decompose(mesh, spec_ref)
    ops_ref = build_global_operators(spec_ref, mesh, dec)
    u_ref = MonolithicSolver(ops_ref).solve()

    rows = []
    for n_steps in steps:
        spec = mms_spec(dimension, nx, n_steps, theta)
        if ref_steps % n_steps:
            raise ValueError(f"{n_steps} steps do not divide {ref_steps}")
        ops = build_global_operators(spec, mesh, dec)
        u = MonolithicSolver(ops).solve()
        stride = ref_steps // n_steps
        e = u.values[1:] - u_ref.values[stride::stride]
        rows.append(_mms_row(spec, ops, e))
    return _with_orders(rows, "tau")


def least_squares_order(scales, errors) -> float:
    """Convergence order as the least-squares slope of log(err)."""
    return float(np.polyfit(np.log(scales), np.log(errors), 1)[0])


def spectral_portrait(setup: LabSetup, s_values) -> list[SpectralRow]:
    """spectral_analysis of the problem's S_1 and S_2 at every s of
    ``s_values``.  Each is the dense matrix of the column its solver
    keeps (_kept_steklov; a solver not yet probed is probed at the first
    s, after the dense guard has passed)."""
    ops = setup.ops_1
    n_steps, n_g = ops.grid.n_steps, ops.n_interface
    check_dense_columns(n_steps, n_g)
    # assemble_dense of the column's apply is bit-equal to its .dense();
    # it is kept so that dense probing stays the one call perfbench
    # counts and cuts its time line at (perfbench/test_perfbench.py)
    S1, S2 = (assemble_dense(_kept_steklov(solver, s_values[0]), n_steps, n_g)
              for solver in setup.solvers)
    return spectral_analysis(S1, S2, ops.M_gamma, ops.grid.tau, s_values)


def _kept_steklov(solver: SubdomainSolver, s: float):
    """The signal map of S_i from its kept column, probed at s if need be."""
    if solver.forms is None:
        robin_trace_map(solver, s)
    steklov = solver.forms.steklov
    return lambda eta: InterfaceSignal(steklov.apply(eta.values), "dual")


# ---------------------------------------------------------------------------
# Scenario configuration
# ---------------------------------------------------------------------------

@dataclass
class ScenarioConfig:
    """Flat configuration of one scenario run."""

    scenario: str = "converge"
    dimension: int = 2
    nx: int = 16
    ny: int = 16
    length_x: float = 1.0
    length_y: float = 1.0
    interface_x: float = 0.5
    alpha_left: float = 1.0
    alpha_right: float = 3.0
    horizon: float = 1.0
    n_steps: int = 16
    theta: float = 1.0
    source: str = "constant"
    source_scale: float = 1.0
    s: float = 1.0
    tol: float = 1e-10
    max_iter: int = 200
    variant: str = "pr_interface"
    iterations: int = 50
    s_values: tuple = (0.1, 1.0, 10.0)
    mesh_levels: tuple = (4, 8, 16)
    samples: int = 50
    phi: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in _RUNNERS:
            raise ConfigError(f"unknown scenario {self.scenario!r}; "
                              f"choose one of {tuple(_RUNNERS)}")
        if self.variant not in ("pr_interface", "rr_pde"):
            raise ConfigError(f"unknown variant {self.variant!r}")
        if not self.s_values or not self.mesh_levels:
            raise ConfigError("sweep lists must be nonempty")
        # Robin parameters and diffusion coefficients (nan fails too)
        if not all(0.0 < x < np.inf for x in (self.s, *self.s_values,
                                              self.alpha_left,
                                              self.alpha_right)):
            raise ConfigError("need s, every s_values entry, alpha_left and "
                              "alpha_right finite and > 0")
        if not np.isfinite(self.source_scale):
            raise ConfigError("source_scale must be finite")
        # mms meshes split at x = 1/2, so each level is an even nx >= 2
        if not all(n >= 2 and n % 2 == 0 for n in self.mesh_levels):
            raise ConfigError("need every mesh_levels entry even and >= 2")
        if not (0 <= self.tol < np.inf and self.seed >= 0 and
                min(self.max_iter, self.iterations, self.samples) >= 1):
            raise ConfigError("need a finite tol >= 0, seed >= 0 and "
                              "max_iter, iterations and samples >= 1")
        # the mms scenario builds its own problems, and phi only reaches
        # parabolic_coercivity, so no ProblemSpec checks these
        if self.dimension not in (1, 2) or self.theta not in (0.5, 1.0):
            raise ConfigError("need dimension 1 or 2 and theta 1 or 0.5")
        if not 0.0 < self.phi < 0.5 * np.pi:
            raise ConfigError("phi must lie in (0, pi/2)")

    def echo(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple):
                out[f.name] = ",".join(_fmt(x) for x in v)
            else:
                out[f.name] = _fmt(v)
        return out


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat key=value configuration text.  Each value is read as
    the type of its ScenarioConfig default; a tuple as a comma-separated
    list of the type of its entries."""
    defaults = {f.name: f.default for f in fields(ScenarioConfig)}
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        if key not in defaults:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        default = defaults[key]
        try:
            if isinstance(default, tuple):
                kind = type(default[0])
                values[key] = tuple(kind(x) for x in val.split(",")
                                    if x.strip())
            else:
                values[key] = type(default)(val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    try:
        cfg = ScenarioConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    if cfg.scenario != "mms":       # every other scenario runs one spec
        spec = spec_from_scenario(cfg)
        if cfg.scenario == "spectrum":      # probes S_1 and S_2 densely
            try:
                check_dense_columns(spec.n_steps, spec.n_interface)
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
    return cfg


def spec_from_scenario(cfg: ScenarioConfig) -> ProblemSpec:
    """Build the ProblemSpec described by a scenario configuration."""
    a_left, a_right = cfg.alpha_left, cfg.alpha_right
    gx = cfg.interface_x

    def diffusion(x, *_):
        return np.where(x < gx, a_left, a_right)

    if cfg.source == "zero":
        source = None
    elif cfg.source == "constant":
        scale = cfg.source_scale

        def source(x, *_):
            return np.full_like(x, scale)
    else:
        raise ConfigError(f"unknown source {cfg.source!r}")

    try:
        return ProblemSpec(
            dimension=cfg.dimension, nx=cfg.nx, ny=cfg.ny,
            length_x=cfg.length_x, length_y=cfg.length_y,
            interface_x=gx, diffusion=diffusion, source=source,
            horizon=cfg.horizon, n_steps=cfg.n_steps, theta=cfg.theta)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV reports
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


@dataclass
class CsvReport:
    """Rectangular numeric report with metadata comment lines."""

    columns: list
    rows: list
    metadata: dict = field(default_factory=dict)

    def render(self) -> str:
        lines = [f"# rrlab {__version__}"]
        lines.append(f"# timestamp = {datetime.datetime.now().isoformat()}")
        for k, v in self.metadata.items():
            lines.append(f"# {k} = {v}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("report rows must be rectangular")
            lines.append(",".join(_fmt(float(x)) for x in row))
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.render())


@dataclass
class ScenarioResult:
    report: CsvReport
    violation: str | None = None


# ---------------------------------------------------------------------------
# Scenario runner
# ---------------------------------------------------------------------------

def run_scenario(cfg: ScenarioConfig, seed: int | None = None) -> ScenarioResult:
    """Run one scenario and build its CSV report.

    Raises ConfigError for invalid configurations; solver failures
    propagate.  A non-converged converge run is reported with a
    violation message (the CLI turns it into exit code 4).
    """
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    meta = cfg.echo()
    columns, rows, violation = _RUNNERS[cfg.scenario](cfg)
    return ScenarioResult(CsvReport(columns, rows, meta), violation)


def _run_converge(cfg):
    setup = setup_problem(spec_from_scenario(cfg))
    refs = references_from_monolithic(setup)
    it = IterationConfig(s=cfg.s, tol=cfg.tol, max_iter=cfg.max_iter)
    # looked up per call, so that a patched run_pr or run_rr is the one run
    driver = run_pr if cfg.variant == "pr_interface" else run_rr
    eta, report = driver(setup.solvers, it, references=refs)
    rows = [
        [n + 1, report.increments[n], report.errors_1[n], report.errors_2[n],
         report.gaps_1[n], report.gaps_2[n], report.residuals[n]]
        for n in range(report.n_iterations)
    ]
    violation = None
    if report.status != "converged":
        violation = (f"iteration finished with status {report.status!r} "
                     f"after {report.n_iterations} iterations")
    cols = ["n", "delta_eta_H", "err_X1", "err_X2", "gap1", "gap2",
            "sp_residual"]
    return cols, rows, violation


def _run_equivalence_scenario(cfg):
    setup = setup_problem(spec_from_scenario(cfg))
    disc = run_equivalence(setup.solvers, cfg.s, cfg.iterations)
    rows = [[n + 1, d] for n, d in enumerate(disc)]
    return ["n", "max_rel_discrepancy"], rows, None


def _run_spectrum(cfg):
    setup = setup_problem(spec_from_scenario(cfg))
    rows_out = []
    for r in spectral_portrait(setup, cfg.s_values):
        rows_out.append([r.s, r.rho, r.sv_min_sJ_S1, r.sv_min_sJ_S2,
                         r.sv_min_S1_S2, r.eig_min_sym_S1, r.eig_min_sym_S2])
    cols = ["s", "rho", "sv_min_sJS1", "sv_min_sJS2", "sv_min_S1S2",
            "eig_min_symS1", "eig_min_symS2"]
    return cols, rows_out, None


def _run_coercivity(cfg):
    from .fracnorm import parabolic_coercivity, random_smooth_field
    setup = setup_problem(spec_from_scenario(cfg))
    rng = np.random.default_rng(cfg.seed)
    rows = []
    running_min = np.inf
    for sample in range(cfg.samples):
        u = random_smooth_field(setup.mesh, setup.dec, setup.ops_1, rng)
        rep = parabolic_coercivity(setup.ops_1, u, cfg.phi)
        running_min = min(running_min, rep.ratio_full)
        rows.append([sample, rep.ratio_full, running_min])
    return ["sample", "ratio", "min_so_far"], rows, None


def _run_mms(cfg):
    studies = (run_mms_spatial(cfg.theta, levels=cfg.mesh_levels,
                               dimension=cfg.dimension),
               run_mms_temporal(cfg.theta, dimension=cfg.dimension))
    rows_out = [[r.h, r.tau, r.l2_error, r.x_error, r.order]
                for study in studies for r in study]
    cols = ["h", "tau", "l2_error", "x_error", "observed_order"]
    return cols, rows_out, None


# The scenarios, each with its runner; ScenarioConfig accepts exactly
# these.  No traced function belongs here: a benchmark that patches a
# module attribute does not reach a value held in this table.
_RUNNERS = {
    "converge": _run_converge,
    "equivalence": _run_equivalence_scenario,
    "spectrum": _run_spectrum,
    "coercivity": _run_coercivity,
    "mms": _run_mms,
}
