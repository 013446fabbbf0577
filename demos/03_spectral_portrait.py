"""Spectral portrait of the interface iteration.

Probes the two Steklov-Poincare operators into dense matrices (one
probe per interface dof at step 1; the operators are causal and
time-invariant, so that block column determines them), then reports,
per Robin parameter s: the spectral radius of the Peaceman-Rachford
error propagator (from its diagonal block), the minimum singular values
certifying that sJ + S_i and S1 + S2 are invertible, and the minimum
eigenvalues of the symmetric parts of S_i (the discrete monotonicity
constants).
"""

import numpy as np

from rrlab.lab import default_problem, setup_problem, spectral_portrait

print(__doc__)

setup = setup_problem(default_problem())
ops = setup.ops_1
n_steps, n_g = ops.grid.n_steps, ops.n_interface
print(f"probing dense operators ({n_g} step-1 probes each, "
      f"tiled to {n_steps * n_g} columns) ...")
rows = spectral_portrait(setup, np.geomspace(0.05, 50.0, 11))

print("\n      s        rho      sv_min(sJ+S1)  sv_min(sJ+S2)")
for r in rows:
    bar = "#" * int(40 * r.rho)
    print(f"  {r.s:8.3f}   {r.rho:.4f}   {r.sv_min_sJ_S1:.3e}      "
          f"{r.sv_min_sJ_S2:.3e}   {bar}")

r0 = rows[0]
print(f"\nsv_min(S1+S2) = {r0.sv_min_S1_S2:.3e}")
print(f"min eig of sym(S1), sym(S2) = {r0.eig_min_sym_S1:.3e}, "
      f"{r0.eig_min_sym_S2:.3e}")
print("\nrho < 1 across the sweep: the iteration contracts for every s>0,")
print("fastest near the spectral center of the interface operators.")
