"""Per-layer tracing of rrlab from outside the package.

The traced run replaces selected rrlab functions and methods with
timing wrappers for the duration of a ``with patched(...)`` block.  A
module-level function is replaced in every ``rrlab`` module namespace
that holds it (``from .x import f`` copies the reference), a method on
its class.  Nothing inside ``src/`` is edited.

A span's self time is its duration minus the durations of the spans it
directly encloses, so self times of nested layers add up to the
duration of the outermost span.
"""

from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from functools import wraps

# Traced functions: (metric prefix, "module:attribute path", what the
# layer's numbers should move).  Metric prefixes are <module>.<function>
# with the rrlab module name; the function part names the operation
# (Factorization.solve is one LU solve, hence subsolve.lu_solve).
TARGETS = (
    ("mesh.build_mesh", "rrlab.mesh:build_mesh",
     "setup_s on all workloads, most on check"),
    ("mesh.decompose", "rrlab.mesh:decompose",
     "setup_s on all workloads, most on check"),
    ("assembly.build_subdomain_operators",
     "rrlab.assembly:build_subdomain_operators",
     "setup_s on all workloads, most on check"),
    ("assembly.build_global_operators",
     "rrlab.assembly:build_global_operators",
     "setup_s on all workloads, most on check"),
    ("assembly.build_step_operators", "rrlab.assembly:build_step_operators",
     "setup_s on all workloads; Robin matrices are built on first use"),
    ("subsolve.factorize", "rrlab.subsolve:Factorization.__init__",
     "setup_s on all workloads, most on check"),
    ("subsolve.lu_solve", "rrlab.subsolve:Factorization.solve",
     "ms_per_iter and wall_s on converge (most at nx=64); "
     "wall_s on check"),
    ("subsolve.dirichlet_solve", "rrlab.subsolve:SubdomainSolver.dirichlet_solve",
     "ms_per_iter on converge; wall_s on check"),
    ("subsolve.robin_solve", "rrlab.subsolve:SubdomainSolver.robin_solve",
     "ms_per_iter on converge; wall_s on check"),
    ("subsolve.flux_recovery", "rrlab.subsolve:SubdomainSolver.flux_recovery",
     "ms_per_iter on converge; wall_s on check"),
    ("subsolve.monolithic_solve", "rrlab.subsolve:MonolithicSolver.solve",
     "wall_s on converge (reference solve) and check (MMS studies)"),
    ("interface.steklov_apply", "rrlab.interface:SteklovOperator.apply",
     "ms_per_iter on converge; wall_s on check (probing)"),
    ("interface.interface_source", "rrlab.interface:interface_source",
     "ms_per_iter on converge; wall_s on check"),
    ("interface.interface_gram", "rrlab.interface:interface_gram",
     "ms_per_iter on converge; wall_s on check"),
    ("interface.h_norm", "rrlab.interface:h_norm",
     "ms_per_iter on converge; wall_s on check"),
    ("interface.pr_step", "rrlab.interface:pr_step",
     "ms_per_iter on converge; wall_s on check; calls equal iterations"),
    ("interface.run_pr", "rrlab.interface:run_pr",
     "wall_s on converge and check; base of interface_source.per_run"),
    ("interface.robin_sweep", "rrlab.interface:robin_sweep",
     "wall_s on check"),
    ("interface.assemble_dense", "rrlab.interface:assemble_dense",
     "wall_s on check; zero on converge"),
    ("interface.spectral_analysis", "rrlab.interface:spectral_analysis",
     "wall_s on check; zero on converge"),
    ("fracnorm.parabolic_coercivity", "rrlab.fracnorm:parabolic_coercivity",
     "wall_s on check only"),
    ("dense.dense_schur_complement", "rrlab.dense:dense_schur_complement",
     "wall_s on check only"),
    ("lab.setup_problem", "rrlab.lab:setup_problem",
     "setup_s on all workloads"),
    ("lab.field_error_norm", "rrlab.lab:field_error_norm",
     "ms_per_iter on converge; wall_s on check"),
    ("lab.run_mms_spatial", "rrlab.lab:run_mms_spatial",
     "wall_s on check only"),
    ("lab.run_mms_temporal", "rrlab.lab:run_mms_temporal",
     "wall_s on check only"),
    ("lab.run_scenario", "rrlab.lab:run_scenario",
     "wall_s on converge (outermost span)"),
    ("acceptance.run_acceptance", "rrlab.acceptance:run_acceptance",
     "wall_s on check (outermost span)"),
    ("acceptance.criterion_1", "rrlab.acceptance:criterion_1_convergence",
     "wall_s on check only"),
    ("acceptance.criterion_2", "rrlab.acceptance:criterion_2_equivalence",
     "wall_s on check only"),
    ("acceptance.criterion_3", "rrlab.acceptance:criterion_3_schur_oracle",
     "wall_s on check only"),
    ("acceptance.criterion_4", "rrlab.acceptance:criterion_4_bijectivity",
     "wall_s on check only"),
    ("acceptance.criterion_5", "rrlab.acceptance:criterion_5_monotonicity",
     "wall_s on check only"),
    ("acceptance.criterion_6", "rrlab.acceptance:criterion_6_vanishing_gap",
     "wall_s on check only"),
    ("acceptance.criterion_7", "rrlab.acceptance:criterion_7_contraction",
     "wall_s on check only"),
    ("acceptance.criterion_8", "rrlab.acceptance:criterion_8_coercivity",
     "wall_s on check only"),
    ("acceptance.criterion_9", "rrlab.acceptance:criterion_9_mms_orders",
     "wall_s on check only"),
    ("acceptance.criterion_10", "rrlab.acceptance:criterion_10_gluing",
     "wall_s on check only"),
)

# Ratios of call counts: (name, unit, numerator, denominators).
RATIOS = (
    ("interface.interface_source.per_run", "count/run",
     "interface.interface_source", ("interface.run_pr",)),
    ("subsolve.dirichlet_solve.per_iter", "count/iter",
     "subsolve.dirichlet_solve", ("interface.pr_step",)),
    ("subsolve.lu_solve.per_subsolve", "count/solve",
     "subsolve.lu_solve", ("subsolve.dirichlet_solve", "subsolve.robin_solve",
                           "subsolve.monolithic_solve")),
)


def _resolve(path: str):
    """Return (owner, attribute name, original) for "module:a.b"."""
    module_name, _, attr_path = path.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


@contextmanager
def patched(factories: dict):
    """Replace rrlab callables while the block runs.

    ``factories`` maps "module:attribute path" to a function that takes
    the original callable and returns its replacement.  Paths that no
    longer resolve are skipped; their names are yielded so the caller
    can report them.
    """
    undo = []
    missing = []
    try:
        for path, factory in factories.items():
            try:
                owner, attr, original = _resolve(path)
            except (ImportError, AttributeError):
                missing.append(path)
                continue
            replacement = factory(original)
            if isinstance(owner, type):
                undo.append((owner, attr, original))
                setattr(owner, attr, replacement)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "rrlab" and not mod_name.startswith("rrlab."):
                    continue
                for name, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, name, original))
                        setattr(mod, name, replacement)
        yield missing
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


class Tracer:
    """Call counts and self times of the spans the wrappers record."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self._child_s = []      # per open span: time covered by its children

    def reset(self) -> None:
        self.calls.clear()
        self.self_s.clear()

    def wrap(self, name: str, fn):
        calls, self_s, child_s = self.calls, self.self_s, self._child_s

        @wraps(fn)
        def span(*args, **kwargs):
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - t0
                own = duration - child_s.pop()
                if child_s:
                    child_s[-1] += duration
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + own

        return span

    def factories(self) -> dict:
        """Patch factories recording a span per call of each target."""
        return {path: (lambda fn, name=name: self.wrap(name, fn))
                for name, path, _ in TARGETS}


def ratios(calls: dict) -> dict:
    """Call-count ratios of RATIOS; 0.0 where the base count is 0."""
    out = {}
    for name, _, num, dens in RATIOS:
        base = sum(calls.get(d, 0) for d in dens)
        out[name] = calls.get(num, 0) / base if base else 0.0
    return out
