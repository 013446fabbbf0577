"""Structured meshes and the two-subdomain decomposition.

The domain is an interval (0, Lx) in 1D or a rectangle (0, Lx) x (0, Ly)
in 2D, meshed with uniform segments or a structured triangle split.  A
vertical line x = gamma_x (which must coincide with a mesh line) splits
the domain into a left and a right subdomain; the shared interface
carries its own degree-of-freedom set.

Exterior boundary conditions are homogeneous Dirichlet and are imposed
by eliminating the boundary nodes from every dof set.  Interface nodes
that sit on the exterior boundary (the endpoints of the interface
segment in 2D) belong to the Dirichlet set as well, so interface traces
vanish at the ends of the interface.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np
import scipy.sparse as sp

__all__ = ["ProblemSpec", "Mesh", "Decomposition", "build_mesh", "decompose"]

_ALIGN_TOL = 1e-9


@dataclass(frozen=True)
class ProblemSpec:
    """Geometry, coefficients, and discretization parameters.

    Parameters
    ----------
    dimension : int
        Spatial dimension, 1 or 2.
    nx, ny : int
        Cells per direction (ny ignored in 1D).
    length_x, length_y : float
        Domain extents.
    interface_x : float
        x-coordinate of the subdomain interface; must lie on an interior
        mesh line.
    diffusion : float or callable
        Diffusion coefficient, sampled at element centroids.  A callable
        receives arrays (x,) in 1D or (x, y) in 2D.
    source : callable or None
        Source term f(x, t) in 1D or f(x, y, t) in 2D, sampled at nodes.
        None means f = 0.
    horizon : float
        Final time T.
    n_steps : int
        Number of uniform time steps.
    theta : float
        Time-stepping parameter, 1 (backward Euler) or 0.5
        (Crank-Nicolson).
    """

    dimension: int
    nx: int
    ny: int = 0
    length_x: float = 1.0
    length_y: float = 1.0
    interface_x: float = 0.5
    diffusion: Union[float, Callable] = 1.0
    source: Callable | None = None
    horizon: float = 1.0
    n_steps: int = 16
    theta: float = 1.0

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dimension}")
        if self.nx < 2:
            raise ValueError("nx must be at least 2")
        if self.dimension == 2 and self.ny < 2:
            raise ValueError("ny must be at least 2 in 2D")
        # nan fails these comparisons too
        extents = (self.length_x, self.length_y)[:self.dimension]
        if not all(0 < x < np.inf for x in extents):
            raise ValueError("domain extents must be positive and finite")
        if not 0 < self.horizon < np.inf:
            raise ValueError("horizon must be positive and finite")
        if self.n_steps < 2:
            raise ValueError("n_steps must be at least 2")
        if self.theta not in (1.0, 0.5, 1):
            raise ValueError("theta must be 1 or 0.5")
        hx = self.length_x / self.nx
        col = self.interface_x / hx
        if abs(col - round(col)) > _ALIGN_TOL:
            raise ValueError(
                f"interface_x={self.interface_x} does not lie on a mesh line "
                f"(hx={hx})")
        if not 0 < round(col) < self.nx:
            raise ValueError("interface_x must be strictly inside (0, Lx)")

    @property
    def tau(self) -> float:
        return self.horizon / self.n_steps

    @property
    def interface_column(self) -> int:
        return round(self.interface_x / (self.length_x / self.nx))

    @property
    def n_interface(self) -> int:
        """Free dofs on the interface: ny - 1 in 2D, whose interface
        ends lie on the Dirichlet boundary, and 1 in 1D.  decompose
        checks its interface against this count."""
        return self.ny - 1 if self.dimension == 2 else 1


@dataclass(frozen=True)
class Mesh:
    """Nodes, elements, and boundary flags of a structured mesh.

    Nodes are ordered lexicographically by (y, x).  Elements are
    segments (1D) or positively oriented triangles (2D, each cell split
    along the lower-left to upper-right diagonal).
    """

    dimension: int
    nodes: np.ndarray          # (n_nodes, dimension)
    elements: np.ndarray       # (n_elements, dimension + 1) node indices
    boundary: np.ndarray       # (n_nodes,) bool

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_measures(self) -> np.ndarray:
        """Lengths (1D) or areas (2D) of all elements."""
        coords = self.nodes[self.elements]
        if self.dimension == 1:
            return np.abs(coords[:, 1, 0] - coords[:, 0, 0])
        d1 = coords[:, 1] - coords[:, 0]
        d2 = coords[:, 2] - coords[:, 0]
        return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    def element_centroids(self) -> np.ndarray:
        return self.nodes[self.elements].mean(axis=1)


@dataclass(frozen=True)
class Decomposition:
    """Dof partition for the two-subdomain split.

    All index arrays hold global node ids.  ``interior[i]`` are the
    non-Dirichlet nodes strictly inside subdomain i, ``interface`` the
    non-Dirichlet nodes on the interface line, and ``free`` the union in
    global node order (the monolithic dof ordering).  Subdomain dof
    vectors are ordered interior-first, interface-last.
    """

    interior_1: np.ndarray
    interior_2: np.ndarray
    interface: np.ndarray
    elements_1: np.ndarray
    elements_2: np.ndarray
    free: np.ndarray = field(repr=False)

    @property
    def n_interface(self) -> int:
        return self.interface.size

    def interiors(self, i: int) -> np.ndarray:
        return (self.interior_1, self.interior_2)[_side(i)]

    def subdomain_nodes(self, i: int) -> np.ndarray:
        """Global node ids of subdomain i dofs, interior first."""
        return np.concatenate([self.interiors(i), self.interface])

    def elements_of(self, i: int) -> np.ndarray:
        return (self.elements_1, self.elements_2)[_side(i)]

    def restriction_matrix(self, i: int) -> sp.csr_matrix:
        """Sparse 0/1 map from monolithic dof vectors to subdomain i."""
        sub = self.subdomain_nodes(i)
        pos = np.searchsorted(self.free, sub)
        n_sub, n_free = sub.size, self.free.size
        return sp.csr_matrix(
            (np.ones(n_sub), (np.arange(n_sub), pos)), shape=(n_sub, n_free))

    def restrict(self, i: int, free_values: np.ndarray) -> np.ndarray:
        """Extract subdomain i values from a monolithic dof vector."""
        pos = np.searchsorted(self.free, self.subdomain_nodes(i))
        return np.asarray(free_values)[..., pos]


def _side(i: int) -> int:
    """0 for subdomain 1 and 1 for subdomain 2; ValueError otherwise."""
    if i not in (1, 2):
        raise ValueError(f"subdomain index must be 1 or 2, got {i}")
    return 0 if i == 1 else 1


def build_mesh(spec: ProblemSpec) -> Mesh:
    """Build the structured mesh described by ``spec``.

    Node ordering is lexicographic by (y, x); in 2D every cell is split
    into two triangles along the same diagonal.
    """
    nx, hx = spec.nx, spec.length_x / spec.nx
    if spec.dimension == 1:
        nodes = (np.arange(nx + 1) * hx)[:, None]
        elements = np.column_stack([np.arange(nx), np.arange(1, nx + 1)])
        boundary = np.zeros(nx + 1, dtype=bool)
        boundary[[0, -1]] = True
        return Mesh(1, nodes, elements.astype(np.int64), boundary)

    ny, hy = spec.ny, spec.length_y / spec.ny
    xs = np.arange(nx + 1) * hx
    ys = np.arange(ny + 1) * hy
    X, Y = np.meshgrid(xs, ys)                 # row j holds y = ys[j]
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    i, j = np.meshgrid(np.arange(nx), np.arange(ny))
    i, j = i.ravel(), j.ravel()
    n00 = j * (nx + 1) + i
    n10 = n00 + 1
    n01 = n00 + (nx + 1)
    n11 = n01 + 1
    # Cell diagonals mirror at the interface column, so the two
    # subdomains are exact reflections of each other (both positively
    # oriented).
    left = i < spec.interface_column
    lower = np.where(left[:, None],
                     np.column_stack([n00, n10, n11]),
                     np.column_stack([n00, n10, n01]))
    upper = np.where(left[:, None],
                     np.column_stack([n00, n11, n01]),
                     np.column_stack([n10, n11, n01]))
    elements = np.vstack([lower, upper]).astype(np.int64)

    boundary = np.zeros((ny + 1, nx + 1), dtype=bool)
    boundary[[0, -1], :] = True
    boundary[:, [0, -1]] = True
    return Mesh(2, nodes, elements, boundary.ravel())


def decompose(mesh: Mesh, spec: ProblemSpec) -> Decomposition:
    """Partition elements and dofs across the interface x = interface_x.

    A node is on it within _ALIGN_TOL mesh spacings, at any domain size.
    Raises ValueError if the interface would touch the exterior boundary
    or if any partition invariant fails.
    """
    gx = spec.interface_x
    x = mesh.nodes[:, 0]
    tol = _ALIGN_TOL * spec.length_x / spec.nx

    centroids = mesh.element_centroids()[:, 0]
    elements_1 = np.flatnonzero(centroids < gx)
    elements_2 = np.flatnonzero(centroids > gx)
    if elements_1.size == 0 or elements_2.size == 0:
        raise ValueError("interface leaves one subdomain empty")

    free = np.flatnonzero(~mesh.boundary)
    on_iface = np.abs(x[free] - gx) <= tol
    interface = free[on_iface]
    interior_1 = free[(x[free] < gx - tol)]
    interior_2 = free[(x[free] > gx + tol)]
    if interface.size != spec.n_interface:
        raise ValueError(f"interface carries {interface.size} free dofs, "
                         f"not {spec.n_interface}")

    dec = Decomposition(interior_1, interior_2, interface,
                        elements_1, elements_2, free)
    _check_partition(mesh, dec)
    return dec


def _check_partition(mesh: Mesh, dec: Decomposition) -> None:
    # Partition of the free dofs and of the element set.
    total = dec.interior_1.size + dec.interior_2.size + dec.n_interface
    if total != dec.free.size:
        raise ValueError("dof partition does not cover the free dofs")
    if dec.elements_1.size + dec.elements_2.size != mesh.n_elements:
        raise ValueError("element partition does not cover the mesh")
    # Every interface dof must touch elements on both sides.
    nodes_1 = set(mesh.elements[dec.elements_1].ravel().tolist())
    nodes_2 = set(mesh.elements[dec.elements_2].ravel().tolist())
    for g in dec.interface:
        if g not in nodes_1 or g not in nodes_2:
            raise ValueError(f"interface dof {g} does not touch both sides")
