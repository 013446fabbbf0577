"""rrlab: a numerical laboratory for the Robin-Robin domain
decomposition method applied to linear parabolic problems.

The package assembles space-time finite element systems on a
two-subdomain split of an interval or rectangle, realizes the
Robin-Robin method both as a Peaceman-Rachford iteration on discrete
Steklov-Poincare operators and as alternating Robin subdomain solves,
and ships a fractional-Sobolev-norm toolkit (padded DFT, discrete
Hilbert transform) for verifying the coercivity structure behind the
method's convergence.
"""

__version__ = "0.1.0"

from .mesh import ProblemSpec, Mesh, Decomposition, build_mesh, decompose
from .assembly import (TimeGrid, SubdomainOperators, GlobalOperators,
                       assemble_mass_stiffness, assemble_interface_mass,
                       assemble_interface_stiffness, assemble_loads,
                       build_step_operators, build_subdomain_operators,
                       build_global_operators, robin_coefficient)
from .subsolve import (SpaceTimeField, InterfaceSignal, Factorization,
                       SubdomainSolver, MonolithicSolver, SolverFailure)
from .interface import (SteklovOperator, IterationConfig, ConvergenceReport,
                        interface_source, solve_robin_resolvent, pr_step,
                        run_pr, init_robin_sweep, robin_sweep,
                        run_equivalence, h_norm, assemble_dense,
                        spectral_analysis)
from .fracnorm import (TimeSignal, FractionalNormConfig, fractional_norm,
                       hilbert_transform, apply_phase_rotation,
                       parabolic_coercivity, trace_space_norm)
from .lab import (ConfigError, LabSetup, setup_problem,
                  default_problem, solve_monolithic, restrict_field,
                  glue_fields, global_trace, references_from_monolithic,
                  field_error_norm, ScenarioConfig, parse_config,
                  run_scenario, CsvReport)
