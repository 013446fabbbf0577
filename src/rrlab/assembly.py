"""Finite element assembly and per-step operators.

Continuous piecewise-linear elements with exact element matrices; the
consistent (non-lumped) mass matrix is used throughout.  The theta
scheme advances ``(M/tau) u^k + theta K u^k = f^k + (M/tau - (1-theta) K)
u^{k-1}`` with a uniform step, so a single factorization serves all
steps.

Interface-signal conventions: dual interface signals carry the temporal
quadrature weight tau inside their coefficients, so duality pairings are
plain dot products summed over steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import Decomposition, Mesh, ProblemSpec

__all__ = [
    "TimeGrid", "SubdomainOperators", "GlobalOperators",
    "assemble_mass_stiffness", "assemble_interface_mass",
    "assemble_interface_stiffness", "assemble_loads",
    "build_step_operators", "build_subdomain_operators",
    "build_global_operators", "element_diffusion", "robin_coefficient",
    "lumped_interface_mass",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid of the theta scheme."""

    tau: float
    n_steps: int
    theta: float

    def __post_init__(self):
        if self.tau <= 0 or self.n_steps < 1:
            raise ValueError("need tau > 0 and n_steps >= 1")
        if self.theta not in (1.0, 0.5, 1):
            raise ValueError("theta must be 1 or 0.5")

    @property
    def horizon(self) -> float:
        return self.tau * self.n_steps

    def load_times(self) -> np.ndarray:
        """Sampling times of the source term, one per step."""
        k = np.arange(1, self.n_steps + 1, dtype=float)
        if self.theta == 0.5:
            k -= 0.5
        return k * self.tau


def element_diffusion(spec: ProblemSpec, mesh: Mesh) -> np.ndarray:
    """Per-element diffusion values, sampled at element centroids."""
    if callable(spec.diffusion):
        c = mesh.element_centroids()
        alpha = np.asarray(spec.diffusion(*c.T), dtype=float)
        alpha = np.broadcast_to(alpha, (mesh.n_elements,)).copy()
    else:
        alpha = np.full(mesh.n_elements, float(spec.diffusion))
    if np.any(alpha <= 0) or not np.all(np.isfinite(alpha)):
        raise ValueError("diffusion must be positive and finite on every element")
    return alpha


def _element_matrices_1d(h, a):
    """Mass and stiffness of segments of lengths ``h``, diffusion ``a``."""
    ke = (a / h)[:, None, None] * np.array([[1.0, -1.0], [-1.0, 1.0]])
    me = (h / 6.0)[:, None, None] * np.array([[2.0, 1.0], [1.0, 2.0]])
    return me, ke


def _element_matrices_2d(mesh, alpha, elements):
    coords = mesh.nodes[mesh.elements[elements]]
    x, y = coords[..., 0], coords[..., 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area = 0.5 * (b[:, 0] * c[:, 1] - b[:, 1] * c[:, 0])
    area = np.abs(area)
    if np.any(area <= 0):
        raise ValueError("degenerate element encountered")
    a = alpha[elements]
    ke = (a / (4.0 * area))[:, None, None] * (
        b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
    mref = (np.ones((3, 3)) + np.eye(3)) / 12.0
    me = area[:, None, None] * mref
    return me, ke


def _assemble_raw(conn: np.ndarray, me: np.ndarray, ke: np.ndarray, n: int):
    """COO scatter of element mass and stiffness on connectivity ``conn``."""
    npe = conn.shape[1]
    rows = np.repeat(conn, npe, axis=1).ravel()
    cols = np.tile(conn, (1, npe)).ravel()
    M = sp.coo_matrix((me.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    K = sp.coo_matrix((ke.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    return M, K


def _assemble_mesh(mesh: Mesh, alpha: np.ndarray, elements: np.ndarray):
    """Mass and stiffness over ``elements`` on the full node set."""
    if mesh.dimension == 1:
        me, ke = _element_matrices_1d(mesh.element_measures()[elements],
                                      alpha[elements])
    else:
        me, ke = _element_matrices_2d(mesh, alpha, elements)
    return _assemble_raw(mesh.elements[elements], me, ke, mesh.n_nodes)


def _restrict(A: sp.spmatrix, idx: np.ndarray) -> sp.csr_matrix:
    """Rows and columns ``idx`` of A, as CSR with sorted indices."""
    A = A[idx][:, idx].tocsr()
    A.sort_indices()
    return A


def assemble_mass_stiffness(mesh: Mesh, alpha: np.ndarray,
                            elements: np.ndarray,
                            dof_nodes: np.ndarray):
    """Assemble mass and stiffness over ``elements`` on ``dof_nodes``.

    Rows and columns outside ``dof_nodes`` (the Dirichlet set) are
    eliminated.  Returns CSR matrices with sorted indices.

    Parameters
    ----------
    alpha : ndarray
        Per-element diffusion values (full-mesh indexing).
    elements : ndarray
        Element ids to assemble over.
    dof_nodes : ndarray
        Global node ids kept as dofs, in the desired ordering.
    """
    if np.any(alpha[elements] <= 0):
        raise ValueError("diffusion must be positive on every element")
    M, K = _assemble_mesh(mesh, alpha, elements)
    return _restrict(M, dof_nodes), _restrict(K, dof_nodes)


def _interface_line(mesh: Mesh, dec: Decomposition):
    """Mass and stiffness of the line x = gamma_x (unit coefficient),
    restricted to the interface dofs; a node is on it within 1e-9 of the
    smallest x spacing, whatever the size of the domain."""
    x = mesh.nodes[:, 0]
    gx = x[dec.interface[0]]
    on_line = np.flatnonzero(
        np.abs(x - gx) <= 1e-9 * np.diff(np.unique(x)).min())
    line = on_line[np.argsort(mesh.nodes[on_line, 1])]
    h = np.diff(mesh.nodes[line, 1])
    conn = np.column_stack([line[:-1], line[1:]])
    M, K = _assemble_raw(conn, *_element_matrices_1d(h, np.ones_like(h)),
                         mesh.n_nodes)
    return _restrict(M, dec.interface), _restrict(K, dec.interface)


def assemble_interface_mass(mesh: Mesh, dec: Decomposition) -> sp.csr_matrix:
    """(d-1)-dimensional mass matrix on the interface dofs.

    In 1D the interface is a point and the matrix is [[1]] by
    convention.
    """
    if dec.n_interface == 0:
        raise ValueError("empty interface")
    if mesh.dimension == 1:
        return sp.csr_matrix(np.array([[1.0]]))
    return _interface_line(mesh, dec)[0]


def assemble_interface_stiffness(mesh: Mesh, dec: Decomposition) -> sp.csr_matrix:
    """1D Dirichlet Laplacian along the interface (2D meshes only).

    The endpoint nodes are eliminated, so the matrix is positive
    definite on the interface dofs.  Used by the interface trace norm.
    """
    if mesh.dimension != 2:
        raise ValueError("interface stiffness requires a 2D mesh")
    return _interface_line(mesh, dec)[1]


def assemble_loads(spec: ProblemSpec, mesh: Mesh, grid: TimeGrid,
                   dof_nodes: np.ndarray, elements: np.ndarray) -> np.ndarray:
    """Mass-weighted nodal loads, one row per time step.

    The source is sampled at t_k for theta = 1 and at the midpoint
    t_{k-1/2} for theta = 1/2.  Each entry is the exact integral of the
    nodal interpolant of f against a hat function, so the mass rows are
    taken on the full node set (a source need not vanish on the
    Dirichlet boundary) and only then restricted to the dof rows.
    Assembling per subdomain makes the load-splitting identity hold
    exactly by subassembly.
    """
    mass = _assemble_mesh(mesh, np.ones(mesh.n_elements), elements)[0]
    return _loads(spec, mesh, grid, mass[dof_nodes])


def _loads(spec: ProblemSpec, mesh: Mesh, grid: TimeGrid,
           mass_rows: sp.csr_matrix) -> np.ndarray:
    """The loads of assemble_loads from the dof rows of the full-node
    mass, which the operator builders have assembled already."""
    loads = np.zeros((grid.n_steps, mass_rows.shape[0]))
    if spec.source is None:
        return loads
    coords = mesh.nodes
    for k, t in enumerate(grid.load_times()):
        fk = np.asarray(spec.source(*coords.T, t), dtype=float)
        fk = np.broadcast_to(fk, (mesh.n_nodes,))
        if not np.all(np.isfinite(fk)):
            raise ValueError(f"source produced non-finite values at t={t}")
        loads[k] = mass_rows @ fk
    return loads


class _SpaceOperators:
    """What the operators of a dof set share: its size, and matrices
    derived lazily, on first use, from M and K."""

    @property
    def n_dofs(self) -> int:
        return self.dof_nodes.size

    @cached_property
    def MK(self) -> sp.csr_matrix:
        """M + K, the Gram matrix of the H1 norm in space."""
        return (self.M + self.K).tocsr()


@dataclass(frozen=True)
class SubdomainOperators(_SpaceOperators):
    """Assembled spatial operators and loads of one subdomain.

    Dof ordering is interior-first, interface-last.  ``loads[k-1]``
    holds the mass-weighted source at step k.
    """

    index: int
    dof_nodes: np.ndarray
    n_interior: int
    M: sp.csr_matrix
    K: sp.csr_matrix
    M_gamma: sp.csr_matrix
    grid: TimeGrid
    loads: np.ndarray

    @property
    def n_interface(self) -> int:
        return self.n_dofs - self.n_interior

    @cached_property
    def lumped_gamma(self) -> np.ndarray:
        """Diagonal of the lumped interface mass ML_Gamma."""
        return lumped_interface_mass(self.M_gamma).diagonal()

    @cached_property
    def M_gamma_dense(self) -> np.ndarray:
        """M_Gamma as a read-only dense array, n_interface^2 values: the
        Gram of the interface norm (rrlab.interface.h_norm), where a
        dense product costs a fraction of a sparse one."""
        gram = self.M_gamma.toarray()
        gram.flags.writeable = False
        return gram

    @cached_property
    def sJ_by_s(self) -> dict:
        """The diagonals of s J, by s, that rrlab.interface._sJ keeps."""
        return {}

    def embed_interface(self, B: sp.spmatrix) -> sp.csr_matrix:
        """Place an interface-block matrix into the (Gamma, Gamma) slot."""
        n, g = self.n_dofs, self.n_interface
        B = sp.coo_matrix(B)
        return sp.csr_matrix(
            (B.data, (B.row + self.n_interior, B.col + self.n_interior)),
            shape=(n, n))


@dataclass(frozen=True)
class GlobalOperators(_SpaceOperators):
    """Assembled operators of the undecomposed (monolithic) problem."""

    dof_nodes: np.ndarray
    M: sp.csr_matrix
    K: sp.csr_matrix
    grid: TimeGrid
    loads: np.ndarray


def lumped_interface_mass(M_gamma: sp.spmatrix) -> sp.csr_matrix:
    """Row-sum lumping of the interface mass matrix.

    On a point interface (1D domains) lumping is the identity map.  The
    Robin exchange pairs traces through this diagonal matrix: relative
    to the consistent mass it weights oscillatory interface modes up to
    three times more strongly, which balances the contraction of the
    interface iteration between its smooth and oscillatory ends.
    """
    return sp.diags(np.asarray(M_gamma.sum(axis=1)).ravel()).tocsr()


def robin_coefficient(s: float, tau: float) -> float:
    """Weight of the lumped interface mass added to a Robin step matrix.

    The Robin parameter s is paired with the per-step (lumped)
    interface mass, so one step of the Robin solve reads
    ``(s/tau) ML_Gamma u_Gamma^k + [step residual]_Gamma = lambda^k/tau``
    with lambda a dual signal (temporal weight inside).  Equivalently,
    on duality-weighted signals, s multiplies the per-step interface
    Gram matrix rather than its tau-weighted version: s is a rate per
    unit time, and the iteration contracts uniformly over a wide range
    of s on desk-scale problems.
    """
    if not 0.0 <= s < np.inf:      # nan fails too
        raise ValueError("Robin parameter must be finite and nonnegative")
    return s / tau


def build_step_operators(ops: SubdomainOperators | GlobalOperators,
                         s: float | None = None):
    """Per-step matrices (A, C): A u^k = f^k + C u^{k-1}.

    A = M/tau + theta K, C = M/tau - (1-theta) K.  When ``s`` is given
    the Robin interface term is added to the (Gamma, Gamma) block of A;
    a negative or non-finite s is refused (robin_coefficient).
    """
    grid = ops.grid
    A = (ops.M / grid.tau + grid.theta * ops.K).tocsr()
    C = (ops.M / grid.tau - (1.0 - grid.theta) * ops.K).tocsr()
    if s is not None:
        if not isinstance(ops, SubdomainOperators):
            raise ValueError("Robin mode requires subdomain operators")
        weight = robin_coefficient(s, grid.tau)
        if weight > 0:
            A = (A + weight * ops.embed_interface(
                lumped_interface_mass(ops.M_gamma))).tocsr()
    A.sort_indices()
    C.sort_indices()
    return A, C


def _operators(spec: ProblemSpec, mesh: Mesh, elements: np.ndarray,
               dofs: np.ndarray):
    """M, K and loads on ``dofs`` from one assembly over ``elements``:
    the mass does not depend on the diffusion, so the loads take their
    rows from the same full-node mass."""
    alpha = element_diffusion(spec, mesh)
    M, K = _assemble_mesh(mesh, alpha, elements)
    grid = TimeGrid(spec.tau, spec.n_steps, float(spec.theta))
    return (_restrict(M, dofs), _restrict(K, dofs), grid,
            _loads(spec, mesh, grid, M[dofs]))


def build_subdomain_operators(spec: ProblemSpec, mesh: Mesh,
                              dec: Decomposition, i: int) -> SubdomainOperators:
    """Assemble mass, stiffness, interface mass, and loads of subdomain i."""
    dofs = dec.subdomain_nodes(i)
    M, K, grid, loads = _operators(spec, mesh, dec.elements_of(i), dofs)
    return SubdomainOperators(i, dofs, dec.interiors(i).size, M, K,
                              assemble_interface_mass(mesh, dec), grid, loads)


def build_global_operators(spec: ProblemSpec, mesh: Mesh,
                           dec: Decomposition) -> GlobalOperators:
    """Assemble the undecomposed operators on the free dofs."""
    M, K, grid, loads = _operators(spec, mesh, np.arange(mesh.n_elements),
                                   dec.free)
    return GlobalOperators(dec.free, M, K, grid, loads)
