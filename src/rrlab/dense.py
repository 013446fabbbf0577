"""Dense space-time oracles.

Direct assembly of the full space-time system as a dense matrix, used
to cross-check the step-by-step solvers and the matrix-free interface
operators.  Blocks are duality-weighted (multiplied by the temporal
quadrature weight tau), matching the convention that dual interface
signals carry tau inside their coefficients.

These builders work from the raw mass/stiffness matrices only and never
call the time-stepping code, so they stay independent of the paths they
verify.
"""

from __future__ import annotations

import numpy as np

from .assembly import GlobalOperators, SubdomainOperators

__all__ = [
    "dense_space_time_matrix", "dense_space_time_solve",
    "dense_schur_complement",
]


def dense_space_time_matrix(ops: SubdomainOperators | GlobalOperators) -> np.ndarray:
    """Duality-weighted space-time matrix of the theta scheme.

    Unknowns are ordered time-major: row block k (k = 1..n) holds the
    weighted equations tau * (A u^k - C u^{k-1}) = tau * f^k with
    A = M/tau + theta K and C = M/tau - (1-theta) K.
    """
    grid = ops.grid
    M = ops.M.toarray()
    K = ops.K.toarray()
    A = M / grid.tau + grid.theta * K
    C = M / grid.tau - (1.0 - grid.theta) * K
    n = M.shape[0]
    N = grid.n_steps * n
    out = np.zeros((N, N))
    for k in range(grid.n_steps):
        sl = slice(k * n, (k + 1) * n)
        out[sl, sl] = grid.tau * A
        if k > 0:
            prev = slice((k - 1) * n, k * n)
            out[sl, prev] = -grid.tau * C
    return out


def dense_space_time_solve(ops, loads: np.ndarray | None = None,
                           trace_values: np.ndarray | None = None) -> np.ndarray:
    """Solve the full space-time system at once.

    Returns values of shape (n_steps, n_dofs).  If ``trace_values`` is
    given (shape (n_steps, n_interface)), the interface unknowns are
    constrained to those values and only the interior block is solved,
    which mirrors the Dirichlet subdomain solve.
    """
    grid = ops.grid
    n = ops.M.shape[0]
    W = dense_space_time_matrix(ops)
    f = (grid.tau * (ops.loads if loads is None else loads)).ravel()
    if trace_values is None:
        return np.linalg.solve(W, f).reshape(grid.n_steps, n)
    nI = ops.n_interior
    idx = np.arange(grid.n_steps * n).reshape(grid.n_steps, n)
    ii = idx[:, :nI].ravel()
    gg = idx[:, nI:].ravel()
    g = np.asarray(trace_values, dtype=float).ravel()
    u = np.zeros(grid.n_steps * n)
    u[gg] = g
    rhs = f[ii] - W[np.ix_(ii, gg)] @ g
    u[ii] = np.linalg.solve(W[np.ix_(ii, ii)], rhs)
    return u.reshape(grid.n_steps, n)


def dense_schur_complement(ops: SubdomainOperators) -> np.ndarray:
    """Interface Schur complement of the weighted space-time matrix.

    Eliminates all interior unknowns across all steps.  Row/column
    ordering is time-major over the interface dofs, matching the
    flattening of interface signals.
    """
    grid = ops.grid
    n = ops.M.shape[0]
    nI = ops.n_interior
    W = dense_space_time_matrix(ops)
    idx = np.arange(grid.n_steps * n).reshape(grid.n_steps, n)
    ii = idx[:, :nI].ravel()
    gg = idx[:, nI:].ravel()
    W_gg = W[np.ix_(gg, gg)]
    if nI == 0:
        return W_gg
    W_gi = W[np.ix_(gg, ii)]
    W_ig = W[np.ix_(ii, gg)]
    W_ii = W[np.ix_(ii, ii)]
    return W_gg - W_gi @ np.linalg.solve(W_ii, W_ig)
