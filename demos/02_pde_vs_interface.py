"""Two faces of the same iteration.

The Robin-Robin method can be run as alternating Robin subdomain solves
(the PDE view) or as a Peaceman-Rachford iteration on the interface,
driven by Steklov-Poincare operators (the operator view).  Discretely
the two are the *same* linear recursion: with variational flux recovery
and the exact resolvent (a Robin solve, or in a run long enough to pay
for it a map probed once by Robin solves), the iterates agree to
roundoff at every step.
"""

from rrlab.interface import run_equivalence
from rrlab.lab import default_problem, setup_problem

print(__doc__)

setup = setup_problem(default_problem())
n_iterations = 25

for s in (0.5, 1.0, 5.0):
    disc = run_equivalence(setup.solvers, s, n_iterations)
    print(f"s = {s:g}: max relative trace discrepancy over "
          f"{n_iterations} iterations = {max(disc):.3e}")

print("\nAny flux computed by geometric differencing, or any resolvent")
print("realized by an inner iteration, would break this identity.")
