"""Workloads, output checks and metrics of the rrlab benchmark.

Each workload is a closed loop: one caller, and the next case starts
only after the previous one has returned.

- ``converge``: ``run_scenario`` on the converge scenario, the tracked
  ``pr_interface`` run of ``rrlab run``, at nx in {16, 32, 64} x
  s in {0.1, 1, 10}, n_steps = 16, tol = 1e-10, max_iter = 1000.  Nine
  cases; almost all time goes to subdomain time stepping, flux recovery
  and the interface step.
- ``check``: ``run_acceptance(seed, verbose=False)``, the ten acceptance
  criteria: fixed-count tracked runs, the PDE-level sweep, dense probing
  and the spectral portrait of the desk problem, and many small set-ups;
  the only workload that reaches ``fracnorm`` and ``dense``.  The
  spectral rows it computes are recorded and compared with rho_ref.

A separate ``spectrum`` workload (the spectrum scenario alone) was
dropped: on the shared host its 30 s runs spread too much, and the two
remaining workloads get the time to run longer.  check still covers
dense probing and ``spectral_analysis``.

Seed 0 is the desk configuration.  Other seeds shuffle the case order
and scale ``alpha_right`` by a factor within 1 +- ALPHA_JITTER; the
check workload passes the seed to ``run_acceptance`` unchanged.  The
program only ever sees the generated configurations.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass, field, fields
from functools import partial, wraps
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np      # noqa: E402
import scipy            # noqa: E402
import scipy.sparse as sp                                  # noqa: E402
import scipy.sparse.linalg as spla                         # noqa: E402

from rrlab import acceptance, lab                          # noqa: E402
from rrlab.assembly import lumped_interface_mass, robin_coefficient  # noqa: E402
from rrlab.interface import SteklovOperator                # noqa: E402
from rrlab.subsolve import InterfaceSignal, SolverFailure  # noqa: E402

import tracer as tr     # noqa: E402

ALPHA_RIGHT = 3.0
ALPHA_JITTER = 0.01
# A converge case whose final X-norm error exceeds this has not found
# the monolithic solution.  The stopping rule bounds the interface
# increment (tol 1e-10), not the X-norm error: at seed 0 the s = 0.1
# cases stop with errors between 1.6e-8 and 1.2e-7, so the 1e-8 of
# acceptance criterion 1 (a different quantity: first hit within 200
# iterations at tol 0) is reported through max_err_X, not gated here.
ERR_X_GATE = 1e-6


@dataclass(frozen=True)
class Sizes:
    """Problem sizes of the workloads; FULL is the benchmark."""

    nx: tuple = (16, 32, 64)
    s_values: tuple = (0.1, 1.0, 10.0)
    converge_steps: int = 16
    max_iter: int = 1000
    criteria: tuple = ()        # criterion numbers run by check; () = all


FULL = Sizes()
TINY = Sizes(nx=(4,), converge_steps=4, criteria=(3, 4, 8))


@dataclass
class Outcome:
    """Checked result of one case."""

    attempted: int
    failed: int
    values: dict                 # outputs that must repeat exactly
    errors: list = field(default_factory=list)


@dataclass
class Case:
    label: str
    run: Callable[[], Outcome]


@dataclass
class Workload:
    cases: list
    summarize: Callable[[dict, float], dict]    # (values per case, wall_s)


@dataclass
class Samples:
    """What one measured loop over a workload's cases produced."""

    times: dict = field(default_factory=dict)    # case label -> seconds
    segments: dict = field(default_factory=dict)  # label -> key -> fastest s
    counts: dict = field(default_factory=dict)   # label -> key -> per call
    setup_keys: dict = field(default_factory=dict)  # label -> keys in set-up
    setup_times: dict = field(default_factory=dict)  # label -> s per call
    uneven: set = field(default_factory=set)     # labels cut unevenly
    missing: set = field(default_factory=set)    # cuts that did not resolve
    probe: dict = field(default_factory=dict)    # label -> phase -> probe s
    phases: dict = field(default_factory=dict)   # label -> key -> phase
    peak_rss_mb: float = 0.0                     # by the end of the first pass
    values: dict = field(default_factory=dict)   # case label -> first values
    attempted: int = 0
    failed: int = 0
    passes: int = 0
    errors: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    layer_passes: list = field(default_factory=list)   # (calls, self_s)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _seeded(seed: int, n_cases: int):
    """Case order and alpha_right for a seed; seed 0 is the desk setup."""
    if seed == 0:
        return list(range(n_cases)), ALPHA_RIGHT
    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(n_cases)]
    return order, ALPHA_RIGHT * (1.0 + rng.uniform(-ALPHA_JITTER, ALPHA_JITTER))


def _converge_case(cfg) -> Outcome:
    try:
        result = lab.run_scenario(cfg)
    except (SolverFailure, ValueError) as exc:
        return Outcome(1, 1, {}, [f"{type(exc).__name__}: {exc}"])
    last = result.report.rows[-1]
    err = float(max(last[2], last[3]))
    errors = []
    if result.violation is not None:
        errors.append(result.violation)
    if not err <= ERR_X_GATE:
        errors.append(f"final X-norm error {err:.3e} > {ERR_X_GATE:g}")
    values = {"iterations": len(result.report.rows), "max_err_X": err}
    return Outcome(1, int(bool(errors)), values, errors)


def converge_workload(seed: int, sizes: Sizes = FULL) -> Workload:
    grid = [(nx, s) for nx in sizes.nx for s in sizes.s_values]
    order, alpha = _seeded(seed, len(grid))
    cases = []
    for nx, s in (grid[i] for i in order):
        cfg = lab.ScenarioConfig(
            scenario="converge", nx=nx, ny=nx, n_steps=sizes.converge_steps,
            s=s, tol=1e-10, max_iter=sizes.max_iter, alpha_right=alpha)
        cases.append(Case(f"nx={nx} s={s:g}", partial(_converge_case, cfg)))

    def summarize(values, wall_s):
        done = [v for v in values.values() if v]      # failed cases have no values
        iterations = sum(v["iterations"] for v in done)
        return {
            "iterations": (iterations, "count"),
            "ms_per_iter": (1e3 * wall_s / iterations if iterations else None, "ms"),
            "max_err_X": (max((v["max_err_X"] for v in done), default=None), "1"),
        }

    return Workload(cases, summarize)


def _step_one_block(solver) -> np.ndarray:
    """Diagonal (step-1) block of a Steklov-Poincare operator.

    Probes only the n_Gamma unit signals at step 1 and keeps the step-1
    rows of the response.
    """
    ops = solver.ops
    n_steps, n_g = ops.grid.n_steps, ops.n_interface
    apply = SteklovOperator(solver).apply
    block = np.empty((n_g, n_g))
    for g in range(n_g):
        e = np.zeros((n_steps, n_g))
        e[0, g] = 1.0
        block[:, g] = apply(InterfaceSignal(e, "primal")).values[0]
    return block


def reference_rho(spec, s_values) -> dict:
    """Spectral radius of the diagonal block T_0 of the PR iteration
    matrix, per s.  The interface operators are block lower-triangular
    Toeplitz in time, so the spectrum of T is that of T_0."""
    setup = lab.setup_problem(spec)
    S1 = _step_one_block(setup.solver_1)
    S2 = _step_one_block(setup.solver_2)
    tau = setup.ops_1.grid.tau
    ML = lumped_interface_mass(setup.ops_1.M_gamma).toarray()
    out = {}
    for s in s_values:
        J = robin_coefficient(s, tau) * tau * ML
        T0 = np.linalg.solve(J + S2, (J - S1) @ np.linalg.solve(J + S1, J - S2))
        out[float(s)] = float(np.abs(np.linalg.eigvals(T0)).max())
    return out


def _row_problem(row) -> str | None:
    """Why a spectral row is wrong, or None."""
    bounds = [row.sv_min_sJ_S1, row.sv_min_sJ_S2, row.sv_min_S1_S2,
              row.eig_min_sym_S1, row.eig_min_sym_S2]
    if not np.all(np.isfinite([row.rho, *bounds])) or row.rho >= 1.0 \
            or min(bounds) <= 0.0:
        return f"s={row.s:g}: rho={row.rho:.4g}, sv/eig minima {bounds}"
    return None


def _criterion_number(crit) -> int:
    return int(crit.__name__.split("_")[1])


def _check_case(seed: int, numbers: tuple) -> Outcome:
    results = []
    rows = []

    def recording(spectral_analysis):
        @wraps(spectral_analysis)
        def run(*args, **kwargs):
            out = spectral_analysis(*args, **kwargs)
            rows.extend(out)
            return out
        return run

    def guarded(crit):
        @wraps(crit)
        def run(art):
            try:
                res = crit(art)
            except (SolverFailure, ValueError) as exc:
                res = acceptance.CriterionResult(
                    _criterion_number(crit), crit.__name__, False,
                    f"{type(exc).__name__}: {exc}")
            results.append(res)
            return res
        return run

    def selection(criteria):
        # Look each criterion up by name so a traced run times the
        # wrapper that the tracer installed on the module.
        return tuple(guarded(getattr(acceptance, c.__name__)) for c in criteria
                     if not numbers or _criterion_number(c) in numbers)

    with tr.patched({"rrlab.acceptance:ALL_CRITERIA": selection,
                     "rrlab.interface:spectral_analysis": recording}):
        code = acceptance.run_acceptance(seed, verbose=False)
    errors = [r.line() for r in results if not r.passed]
    passed = len(results) - len(errors)
    if (code == 0) != (passed == len(results)):
        errors.append(f"run_acceptance returned {code} with "
                      f"{passed}/{len(results)} criteria passing")
    errors += [p for p in map(_row_problem, rows) if p]
    values = {"criteria_passed": passed, "exit_code": code,
              "rho": {r.s: r.rho for r in rows}}
    return Outcome(len(results) + len(rows), len(errors), values, errors)


def check_workload(seed: int, sizes: Sizes = FULL) -> Workload:
    rho_ref = reference_rho(lab.default_problem(), acceptance.S_VALUES)

    def summarize(values, wall_s):
        rho = values["check"]["rho"]
        rel = max((abs(rho[s] - rho_ref[s]) / rho_ref[s] for s in rho), default=None)
        return {
            "criteria_passed": (values["check"]["criteria_passed"], "count"),
            "rho_rel_err": (rel, "1"),
            "rho": ({f"{s:g}": rho[s] for s in sorted(rho)}, "1"),
            "rho_ref": ({f"{s:g}": rho_ref[s] for s in sorted(rho_ref)}, "1"),
        }

    return Workload([Case("check", partial(_check_case, seed, sizes.criteria))],
                    summarize)


WORKLOADS = {"converge": converge_workload, "check": check_workload}


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

# Calls at whose entry a case's time line is cut into segments.  A
# run start also begins a new group of iterations; an iteration call
# begins the next iteration of the current group (see _keyed).
# setup_problem is also cut where it returns: the segments between are
# the set-up.
SETUP = "rrlab.lab:setup_problem"
SETUP_DONE = SETUP + " returned"
# Each acceptance criterion is a phase of its own (see PROBE_REF).
PHASES = tuple(f"rrlab.acceptance:{c.__name__}" for c in acceptance.ALL_CRITERIA)
RUN_STARTS = (SETUP, "rrlab.interface:run_pr",
              "rrlab.interface:run_rr", "rrlab.interface:run_equivalence",
              "rrlab.interface:assemble_dense") + PHASES
# Iteration cuts, each with the run start under which it begins an
# iteration (None: any).  A Steklov apply is one probing column inside
# assemble_dense, and only a part of the iteration inside pr_step.
ITERATIONS = {"rrlab.interface:pr_step": None,
              "rrlab.interface:robin_sweep": None,
              "rrlab.interface:SteklovOperator.apply":
                  "rrlab.interface:assemble_dense"}
CUTS = RUN_STARTS + tuple(ITERATIONS) + (
    "rrlab.mesh:build_mesh",
    "rrlab.mesh:decompose",
    "rrlab.assembly:build_subdomain_operators",
    "rrlab.assembly:build_global_operators",
    "rrlab.assembly:build_step_operators",
    "rrlab.subsolve:Factorization.__init__",
    "rrlab.subsolve:Factorization.solve",
    "rrlab.subsolve:SubdomainSolver.dirichlet_solve",
    "rrlab.subsolve:SubdomainSolver.robin_solve",
    "rrlab.subsolve:SubdomainSolver.flux_recovery",
    "rrlab.subsolve:MonolithicSolver.solve",
    "rrlab.interface:spectral_analysis",
    "rrlab.fracnorm:parabolic_coercivity",
    "rrlab.dense:dense_schur_complement",
)
NAMES = CUTS + (SETUP_DONE, None)       # None marks the ends of a case

PHASE_IDS = frozenset(NAMES.index(c) for c in PHASES)

# Host speed.  On the shared host the benchmark was tuned on, the whole
# machine slows down at times, by up to about 1.8x for seconds to
# minutes, and every unit of work with it; no choice of samples removes
# that.  So while a case runs, a probe (one sparse LU solve that does not
# depend on rrlab) runs at a cut every PROBE_EVERY seconds and at the
# start of each phase, its time is taken out of the case's time line,
# and the time of each phase (a whole converge case, one criterion of
# check) is scaled by PROBE_REF over the fastest probe seen during it:
# seconds at the host's reference speed.  PROBE_REF is the fastest
# probe seen during a case on that host (2 cores, OpenBLAS and SuperLU
# of scipy 1.17.1) while it was quiet.
PROBE_EVERY = 0.02
PROBE_REF = 70e-6
_N_PROBE = 32
_T = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(_N_PROBE, _N_PROBE))
_PROBE = partial(spla.splu((sp.kron(_T, sp.eye(_N_PROBE))
                            + sp.kron(sp.eye(_N_PROBE), _T)).tocsc()).solve,
                 np.ones(_N_PROBE ** 2))


def _problem_key(spec) -> tuple:
    """Fields of a ProblemSpec; callables by the code they run."""
    return tuple(getattr(v, "__qualname__", v) if callable(v) else v
                 for v in (getattr(spec, f.name) for f in fields(spec)))


class Stamper:
    """Time line of one case: time and cut index of each stamped call,
    in flat arrays so that the benchmark's own memory stays small; the
    problem of each setup_problem call; and the fastest host probe of
    each phase."""

    def __init__(self):
        self.times, self.cuts = array("d"), array("B")
        self.problems = []
        self.probe_s = {}               # phase -> fastest probe
        self._phase = 0
        self._skipped = 0.0             # probe time, out of the times
        self._next_probe = 0.0

    def stamp(self, cut: int) -> None:
        now = time.perf_counter()
        self.times.append(now - self._skipped)
        self.cuts.append(cut)
        if cut in PHASE_IDS:
            self._phase += 1
            self._next_probe = now
        if now >= self._next_probe:
            _PROBE()                    # brings the probe into cache
            t0 = time.perf_counter()
            _PROBE()
            t1 = time.perf_counter()
            self.probe_s[self._phase] = min(
                self.probe_s.get(self._phase, t1 - t0), t1 - t0)
            self._skipped += t1 - now
            self._next_probe = t1 + PROBE_EVERY

    def factory(self, cut: int):
        """Patch factory stamping every call."""
        def factory(fn):
            @wraps(fn)
            def stamped(*args, **kwargs):
                self.stamp(cut)
                return fn(*args, **kwargs)
            return stamped
        return factory

    def setup_factory(self, setup_problem):
        """Patch for setup_problem: stamps entry and return, and notes
        the problem."""
        @wraps(setup_problem)
        def stamped(spec):
            self.problems.append(_problem_key(spec))
            self.stamp(NAMES.index(SETUP))
            try:
                return setup_problem(spec)
            finally:
                self.stamp(NAMES.index(SETUP_DONE))
        return stamped


def _keyed(times, names, problems=()):
    """Yield (key, seconds, in set-up, phase) of each segment between
    consecutive stamps; names[i] is the cut stamped at times[i] and
    problems the problem of each setup_problem call.

    A segment's key is its position in the case, with two exceptions
    for work that repeats.  A segment inside setup_problem is keyed by
    the problem and its place in the set-up, so set-ups of the same
    problem pool.  From the second iteration of a kind within a group
    on, the iterations all do the same work, so the j-th segment of each
    has the same key and they pool; the first iteration keeps its own
    keys, because it builds factorizations on first use.
    """
    group, start, seen, pooled = 0, None, {}, None
    problems = iter(problems)
    setup = None
    phase = 0
    names = iter(names)
    a = next(names)
    for i, (t_a, t_b, b) in enumerate(zip(times, times[1:], names)):
        if a in PHASES:
            phase += 1
        if a == SETUP:
            setup = ["setup", next(problems), 0]
        elif a == SETUP_DONE:
            setup = None
        if a in RUN_STARTS:
            group, start, seen, pooled = group + 1, a, {}, None
        elif a in ITERATIONS and ITERATIONS[a] in (None, start):
            seen[a] = seen.get(a, 0) + 1
            pooled = [group, a, 0] if seen[a] > 1 else None
        if setup is not None:
            yield (*setup, a, b), t_b - t_a, True, phase
            setup[2] += 1
        elif pooled is not None:
            yield (*pooled, a, b), t_b - t_a, False, phase
            pooled[2] += 1
        else:
            yield i, t_b - t_a, False, phase
        a = b


def run_case(case: Case, out: Samples) -> None:
    """Run one case and add its time, segments and checked outputs to out."""
    gc.collect()
    st = Stamper()
    factories = {c: st.factory(i) for i, c in enumerate(CUTS)}
    factories[SETUP] = st.setup_factory
    ends = NAMES.index(None)
    with tr.patched(factories) as missing:
        st.stamp(ends)
        outcome = case.run()
        st.stamp(ends)
    out.missing.update(missing)
    out.times.setdefault(case.label, []).append(st.times[-1] - st.times[0])
    probe = out.probe.setdefault(case.label, {})
    for phase, d in st.probe_s.items():
        probe[phase] = min(probe.get(phase, d), d)
    fastest = out.segments.setdefault(case.label, {})
    phases = out.phases.setdefault(case.label, {})
    setup_keys = out.setup_keys.setdefault(case.label, set())
    counts = {}
    setup_s = 0.0
    for key, d, in_setup, phase in _keyed(
            st.times, map(NAMES.__getitem__, st.cuts), st.problems):
        if d < fastest.get(key, float("inf")):
            fastest[key] = d
        phases.setdefault(key, phase)
        counts[key] = counts.get(key, 0) + 1
        if in_setup:
            setup_keys.add(key)
            setup_s += d
    out.setup_times.setdefault(case.label, []).append(setup_s)
    if out.counts.setdefault(case.label, counts) != counts:
        out.uneven.add(case.label)
    out.attempted += outcome.attempted
    out.failed += outcome.failed
    out.errors.extend(f"{case.label}: {e}" for e in outcome.errors)
    first = out.values.setdefault(case.label, outcome.values)
    if first != outcome.values:
        out.mismatches.append(f"{case.label}: {first} then {outcome.values}")


def run_untraced(cases, budget_s: float) -> Samples:
    """Run the cases in order, pass after pass, until budget_s is spent.

    At least one full pass runs; after it, a case starts only if its
    fastest run so far fits in the budget left.  Peak memory is read
    after the first pass: later passes only add the allocator's history,
    and how many run depends on the host's speed.
    """
    out = Samples()
    t_end = time.perf_counter() + budget_s
    while True:
        ran = False
        for case in cases:
            if out.passes and \
                    time.perf_counter() + min(out.times[case.label]) > t_end:
                continue
            run_case(case, out)
            ran = True
        out.passes += 1
        if out.passes == 1:
            out.peak_rss_mb = peak_rss_mb()
        if not ran or time.perf_counter() >= t_end:
            return out


def run_traced(cases, budget_s: float):
    """Run each case untraced and then traced, in whole passes.

    Returns (untraced samples, traced samples, missing target paths).
    The two runs of a case follow each other, so both sets have the
    same samples and meet the same host load.  The tracer's counts and
    self times are kept per pass.  At least one pass runs, and another
    starts only if one more pass of the same length fits in budget_s.
    """
    base, traced, tracer = Samples(), Samples(), tr.Tracer()
    t_start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        tracer.reset()
        for case in cases:
            run_case(case, base)
            with tr.patched(tracer.factories()) as missing:
                run_case(case, traced)
        base.passes += 1
        traced.passes += 1
        traced.layer_passes.append((dict(tracer.calls), dict(tracer.self_s)))
        now = time.perf_counter()
        if now - t_start + (now - t_pass) > budget_s:
            return base, traced, missing


def _quartiles(xs) -> tuple:
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def _summed_quartiles(times: dict) -> tuple:
    """Sum over cases of each case's (q1, median, q3)."""
    return tuple(sum(q) for q in zip(*(_quartiles(t) for t in times.values()))) \
        or (0.0, 0.0, 0.0)


def fastest_time(samples: Samples, setup: bool = False,
                 scaled: bool = True) -> float:
    """Time of one pass, from the fastest instance of each unit of work.

    A case's time line is cut into segments at calls of CUTS; segments
    with the same key (_keyed) are one unit of work.  Each unit counts at
    its fastest observed duration, times how often it occurs per call,
    so every part of a case is counted once.  Interference from other
    tenants only adds time, and units of a fraction of a millisecond
    find the quiet moments that a whole case rarely gets; the host probe
    (PROBE_REF) corrects for the stretches when the whole host is slow.
    A case whose passes were cut differently counts at its fastest whole
    run.  Raw case times, medians and quartiles stay in the detail.

    With ``setup``, only the segments inside setup_problem calls count:
    the set-up time of one pass.  With ``scaled``, each phase's time is
    at the host's reference speed (see PROBE_REF).
    """
    total = 0.0
    for label, times in samples.times.items():
        probe = samples.probe[label]
        if label in samples.uneven:
            scale = PROBE_REF / min(probe.values()) if scaled else 1.0
            total += scale * min(samples.setup_times[label] if setup else times)
            continue
        counts, fastest = samples.counts[label], samples.segments[label]
        phases = samples.phases[label]
        for key in samples.setup_keys[label] if setup else fastest:
            scale = PROBE_REF / probe[phases[key]] if scaled else 1.0
            total += scale * counts[key] * fastest[key]
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _openblas(module) -> str | None:
    try:
        return module.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError, ValueError):
        return None


def metadata(seed: int, blas_threads) -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": _openblas(np),
        "openblas_scipy": _openblas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def layer_metric_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _, _ in tr.TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name, unit, _, _ in tr.RATIOS:
        units[name] = unit
    units["trace_overhead_frac"] = "1"
    return units


def _check_consistency(samples: Samples) -> list:
    """Problems that make a run's output incorrect."""
    problems = list(samples.mismatches)
    # A cut that was renamed or moved would merge segments and blur the
    # timing; the benchmark must follow the rename.
    problems += [f"cut {c} not found" for c in sorted(samples.missing)]
    if samples.failed:
        problems.append(f"{samples.failed} of {samples.attempted} operations failed")
    return problems


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  blas_threads=None, sizes: Sizes = FULL):
    """Run one workload; return (result, detail).

    ``result`` is the benchmark's output object: correct, attempted,
    failed and metrics ({name: {"value", "unit"}}).  ``detail`` holds
    the workload's own end-to-end quantities, quartiles, per-case values,
    failures and metadata.
    """
    wl = WORKLOADS[workload](seed, sizes)
    detail = {"workload": workload, "meta": metadata(seed, blas_threads),
              "tracing": trace}

    if not trace:
        samples = run_untraced(wl.cases, seconds)
        metrics = {
            "wall_s": (fastest_time(samples), "s"),
            "setup_s": (fastest_time(samples, setup=True), "s"),
            "peak_rss_mb": (samples.peak_rss_mb, "MB"),
        }
        detail["unscaled"] = {"wall_s": fastest_time(samples, scaled=False),
                              "setup_s": fastest_time(samples, setup=True,
                                                      scaled=False)}
        detail["probe_s"] = samples.probe
        detail["quartiles"] = {"wall_s": _summed_quartiles(samples.times),
                               "setup_s": _summed_quartiles(samples.setup_times)}
        detail["samples"] = {k: len(v) for k, v in samples.times.items()}
        problems = _check_consistency(samples)
        runs = [samples]
    else:
        base, traced, missing = run_traced(wl.cases, seconds)
        calls = traced.layer_passes[0][0]
        metrics = {}
        units = layer_metric_units()
        for name, _, _ in tr.TARGETS:
            metrics[f"{name}.calls"] = calls.get(name, 0)
            metrics[f"{name}.self_s"] = statistics.median(
                p[1].get(name, 0.0) for p in traced.layer_passes)
        metrics.update(tr.ratios(calls))
        base_wall = fastest_time(base)
        traced_wall = fastest_time(traced)
        metrics["trace_overhead_frac"] = traced_wall / base_wall - 1.0
        metrics = {k: (v, units[k]) for k, v in metrics.items()}
        detail["untraced_wall_s"] = base_wall
        detail["traced_wall_s"] = traced_wall
        detail["traced_passes"] = traced.passes
        problems = _check_consistency(base) + _check_consistency(traced)
        # A traced function that was renamed or moved would read as a
        # layer that costs nothing; the benchmark must follow the rename.
        problems += [f"traced target {p} not found" for p in missing]
        if any(p[0] != calls for p in traced.layer_passes):
            problems.append("traced call counts differ between passes")
        for label, values in traced.values.items():
            if values != base.values.get(label):
                problems.append(f"{label}: traced {values} != untraced "
                                f"{base.values.get(label)}")
        samples = base
        runs = [base, traced]

    wall_s = fastest_time(samples)
    detail["workload_metrics"] = {
        k: {"value": v, "unit": u}
        for k, (v, u) in wl.summarize(samples.values, wall_s).items()}
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    detail["workload_metrics"]["failed_frac"] = {"value": failed / attempted,
                                                 "unit": "1"}
    detail["cases"] = {label: {"values": samples.values[label],
                               "seconds": _quartiles(t), "n": len(t), "times": t}
                       for label, t in samples.times.items()}
    detail["errors"] = [e for r in runs for e in r.errors]
    detail["problems"] = problems
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail
