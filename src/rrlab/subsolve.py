"""Time-stepping subdomain solvers and variational flux recovery.

Solvers advance the theta scheme step by step.  Dirichlet data is
imposed by moving the known interface values to the right-hand side of
the interior rows (the trace of the result is exact).  The Robin solve
adds the weighted interface mass to the (Gamma, Gamma) block.

The variational flux is the interface-row residual of the space-time
operator, scaled by the temporal quadrature weight; it is the
discretization-consistent weak normal derivative, and it makes the
interface Schur complement of the space-time system coincide exactly
with the Steklov-Poincare application.

Every step matrix M/tau + theta K (with the lumped Robin term, if any)
is symmetric positive definite, and in reverse Cuthill-McKee order it
is a narrow band: on the unit-square subdomains the half-bandwidth is
about nx / 2 (7 to 9 at nx = 16, 31 to 33 at nx = 64).
So each one is factored once by banded Cholesky (LAPACK dpbtrf;
George & Liu, Computer Solution of Large Sparse Positive Definite
Systems, 1981), and a time step is one banded triangular solve pair
(dpbtrs) and one sparse product with C.

The band is stored at a height dpbtrs runs fast at.  Its transposed
half runs a dot kernel on columns of kd values, and at kd = 0 or 12
to 15 (mod 16) it is 20-40 % slower than a few heights up.  So from
kd = 12 up such a band gets one to five zero superdiagonals more, to
kd = 1 (mod 16); Cholesky fills nothing outside the band, so the
factor and every solve are exact, and only the roundoff of the sums
changes.  One-column dpbtrs, median microseconds (2 cores, one BLAS
thread, OpenBLAS via scipy 1.17):

    n       kd 12   13   14   15   16   17     31   32   33
    496                       22   21   16     27   26   19
    2016      74   74   77   81   84   60    105  103   73

It is the same at n = 961 and 3969, and at 44 to 48 -> 49 and
94 -> 97 (kd 46 / 49: 31 / 27 at n = 961; 94 / 97: 222 / 202 at
n = 3969, where dpbtrf takes 13.3 / 9.3 ms).
The Dirichlet blocks (kd 15 at nx = 32, 31 at nx = 64), a Robin matrix
at each size (16 and 32) and the monolithic factors (kd 46 at nx = 32,
94 at nx = 64) sit on such heights.

Each solver orders each of its step-matrix patterns once, by reverse
Cuthill-McKee (Cuthill & McKee, Proc. 24th ACM National Conference,
1969), and marches in that band order (_MarchOrder): its C is
kept in it, every factor of the pattern is built in it, and data enter
it once per solve, so a time step is one banded solve and one sparse
product, with no gather or scatter between them.

One kernel, _march, runs every solve: each time step does only the
work that depends on the previous step and hands the step to a
consumer.  The consumer of dirichlet_solve, robin_solve and
MonolithicSolver.solve scatters it into a field; a caller of
robin_solve may pass its own, and keep no field (the first Robin probe
of rrlab.interface).  Dirichlet data terms are sparse products over
the whole trajectory; Robin data terms are made one step at a time.
Finiteness is checked once per field: a non-finite value propagates to
the last step, so one check sees what a check per step solve would.

A solve also takes a block of independent data along a leading batch
axis: interface values (m, n_steps, n_interface) give fields
(m, n_steps + 1, n_dofs), and a 2-D signal or field is the one-column
case.  The block is marched together, still with one Factorization.solve
per time step, so each step is a multi-right-hand-side solve.  Loads
are shared by the block.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .assembly import GlobalOperators, SubdomainOperators, build_step_operators

__all__ = [
    "SpaceTimeField", "InterfaceSignal", "Factorization", "SubdomainSolver",
    "MonolithicSolver", "SolverFailure", "step_norm",
]


# Callers with many independent columns solve them in blocks of at most
# this many field values, (n_steps + 1) * n_dofs per column, and at least
# one column: 32 columns at nx = 16, 7 at nx = 32, 1 at nx = 64.  From
# nx = 32 up narrow blocks do not gain (3 columns at nx = 32 cost as
# much per column as one) and wide ones lose (at nx = 64 a 16-column
# Dirichlet block took 1.23 ms per column against 1.04 ms for one; 2
# cores, one BLAS thread).  2 ** 17 raised the peak memory of a converge
# run over nx = 16, 32 and 64 by 3 MB.  Tracking on the SteklovForms
# (rrlab.interface) holds no field: it takes blocks of this many
# interface values, n_steps^2 * n_interface per iterate, 17 / 8 / 4
# iterates at nx = 16 / 32 / 64 and 16 steps.  A first Robin probe
# (rrlab.interface) streams its unit data through robin_solve and holds
# about 4 n_dofs values per datum: every datum in one block up to
# nx = 32, 8 at nx = 64.  There one nx = 64 probe took 110-147 ms at
# 1 datum per block, 107-137 at 4, 92-112 at 8, 94-115 at 16 and
# 97-125 at 63 (best of 3, both subdomains, three rounds).
BLOCK_VALUES = 2 ** 16


class SolverFailure(RuntimeError):
    """A linear solve could not be completed."""


@dataclass
class SpaceTimeField:
    """Nodal values over (time step, dof); row 0 is the initial slice.

    The initial slice must vanish (homogeneous initial condition).  A
    field holds no label of its domain; its readers check its shape.
    """

    values: np.ndarray          # ([m,] n_steps + 1, n_dofs)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim not in (2, 3):
            raise ValueError("field values must be ([batch,] steps+1, dofs)")
        if (self.values[..., 0, :] != 0.0).any():
            raise ValueError("initial slice of a space-time field must be zero")
        if not np.isfinite(self.values).all():
            raise ValueError("field contains non-finite values")


@dataclass
class InterfaceSignal:
    """Interface values over steps k = 1..n_steps.

    ``kind`` is "primal" for nodal trace values and "dual" for
    functional coefficients (temporal weight already included), so a
    duality pairing is a plain dot product.  Every signal is checked
    finite when made; values of two or more dimensions are kept as
    given (as floats), so a signal costs its check and little more.
    """

    values: np.ndarray          # ([m,] n_steps, n_interface)
    kind: str = "primal"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        self.values = values if values.ndim >= 2 else np.atleast_2d(values)
        if self.kind not in ("primal", "dual"):
            raise ValueError(f"unknown signal kind {self.kind!r}")
        if not np.isfinite(self.values).all():
            raise ValueError("signal contains non-finite values")

    def _like(self, values) -> "InterfaceSignal":
        return InterfaceSignal(values, self.kind)

    def __add__(self, other: "InterfaceSignal") -> "InterfaceSignal":
        if self.kind != other.kind:
            raise ValueError("cannot add signals of different kinds")
        return self._like(self.values + other.values)

    def __sub__(self, other: "InterfaceSignal") -> "InterfaceSignal":
        if self.kind != other.kind:
            raise ValueError("cannot subtract signals of different kinds")
        return self._like(self.values - other.values)

    def __mul__(self, a: float) -> "InterfaceSignal":
        return self._like(self.values * float(a))

    __rmul__ = __mul__

    def pair(self, other: "InterfaceSignal"):
        """Duality pairing of a dual signal with a primal signal; one
        value per column of a block."""
        if {self.kind, other.kind} != {"primal", "dual"}:
            raise ValueError("pairing requires one primal and one dual signal")
        return _per_column(np.sum(self.values * other.values, axis=(-2, -1)))


def _per_column(total: np.ndarray):
    """A float for one column, an array for a block."""
    return float(total) if total.ndim == 0 else total


def _dofwise(A, v: np.ndarray) -> np.ndarray:
    """The sparse matrix A applied to the dof (last) axis of v, an array
    of shape ([m,] steps, dofs), as one product over all rows."""
    out = A @ v.reshape(-1, v.shape[-1]).T
    return out.T.reshape(v.shape[:-1] + (A.shape[0],))


def step_norm(G, v: np.ndarray, tau: float):
    """sqrt(tau * sum_k v_k^T G v_k) over the steps of v, shaped
    ([m,] steps, dofs); one value per column of a block.

    The squares of values near the ends of the double range leave it.
    So a column whose sum overflows, or underflows to 0 while the column
    is not 0, is summed again divided by its largest absolute value,
    which then multiplies the root (Blue, ACM TOMS 4, 1978); every other
    column keeps the plain sum, bit for bit.
    """
    sq = tau * _squares(G, v)
    # false on 0, inf and nan; an empty block passes
    if 0.0 < sq.min(initial=np.inf) and sq.max(initial=0.0) < np.inf:
        return _per_column(np.sqrt(sq))
    norm = np.sqrt(np.maximum(sq, 0.0)).reshape(-1)
    redo = np.flatnonzero(~((0.0 < sq) & (sq < np.inf)))
    cols = v.reshape((-1,) + v.shape[-2:])[redo]
    scale = np.max(np.abs(cols), axis=(1, 2), initial=0.0)
    keep = (0.0 < scale) & (scale < np.inf)     # not 0, nor non-finite
    redo, cols, scale = redo[keep], cols[keep], scale[keep]
    norm[redo] = scale * np.sqrt(np.maximum(
        tau * _squares(G, cols / scale[:, None, None]), 0.0))
    return _per_column(norm.reshape(sq.shape))


def _squares(G, v: np.ndarray) -> np.ndarray:
    """sum_k v_k^T G v_k over the steps of v, one value per column."""
    vt = np.swapaxes(v, -1, -2)
    return np.sum(vt * np.swapaxes(_dofwise(G, v), -1, -2), axis=(-2, -1))


class Factorization:
    """Banded Cholesky factorization of one symmetric positive definite
    step matrix, with provenance for error reports.

    ``order`` is the band order of the matrix's pattern (_MarchOrder):
    dof order[i] is row i of the band.  The matrix's upper band in that
    order is packed in LAPACK band storage straight from its triplets
    and factored once (dpbtrf); a band of height kd >= 12 with kd = 0 or
    12 to 15 (mod 16) is stored at the next kd = 1 (mod 16), where
    dpbtrs runs faster (module docstring).  A solve takes and returns
    vectors in that order: the two banded triangular solves (dpbtrs).
    A matrix with non-finite entries (coefficients or s that overflow)
    is refused with SolverFailure.  Cholesky reads one triangle, so a
    matrix that is not exactly symmetric is rejected (assembly adds the
    same element contributions to (i, j) and (j, i), so step matrices
    are); one that is not positive definite is reported as singular.
    """

    def __init__(self, matrix: sp.spmatrix, label: str = "step matrix", *,
                 order: np.ndarray):
        self.label = label
        self.shape = matrix.shape
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"{label}: matrix must be square")
        A = sp.csr_matrix(matrix, dtype=float)
        if not np.all(np.isfinite(A.data)):
            raise SolverFailure(f"{label} has non-finite entries")
        if (A != A.T).nnz:
            raise ValueError(f"{label}: matrix must be symmetric")
        n = A.shape[0]
        inv = _inverse(order)
        A = A.tocoo()
        row, col = inv[A.row], inv[A.col]
        upper = row <= col
        row, col, data = row[upper], col[upper], A.data[upper]
        kd = int((col - row).max()) if row.size else 0
        # the fast band height (module docstring); the zero rows added
        # above the band leave the factor exact
        if kd >= 12 and kd % 16 in (0, 12, 13, 14, 15):
            kd += (1 - kd) % 16
        band = np.zeros((kd + 1, n))
        band[kd + row - col, col] = data
        self._band, info = dpbtrf(band, overwrite_ab=1)
        if info > 0:
            raise SolverFailure(f"singular {label}: the leading minor of "
                                f"order {info} is not positive definite")

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.shape[0]:
            # dpbtrs solves only the first n rows of a longer right-hand
            # side and reports nothing, and refuses a shorter one with a
            # LAPACK error (info -8)
            raise ValueError(f"{self.label}: right-hand side has "
                             f"{rhs.shape[0]} rows, not {self.shape[0]}")
        if not rhs.size:    # dpbtrs refuses an empty block of columns
            return rhs.copy()
        return dpbtrs(self._band, rhs)[0]       # rhs stays unwritten


def _band_order(A: sp.csr_matrix) -> np.ndarray:
    """The reverse Cuthill-McKee order of A's symmetric pattern: dof
    ``order[i]`` goes to row i of the band."""
    if not A.shape[0]:      # reverse_cuthill_mckee refuses the empty graph
        return np.zeros(0, dtype=np.intp)
    # an intp order indexes without a conversion
    return reverse_cuthill_mckee(A, symmetric_mode=True).astype(np.intp)


def _inverse(order: np.ndarray) -> np.ndarray:
    """The band row of each dof of ``order``."""
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    return inv


class _MarchOrder:
    """The band order a solver marches one step-matrix pattern in, and
    its C in that order.

    The order is made once and shared by every factor of the pattern
    (the Robin term touches only the diagonal, so a Robin matrix at any
    s has the pattern of A).  ``order`` lists the dof at each row of the
    march: a gather into the march order and a scatter out of it index
    with it.  C is kept in it as a sparse matrix.
    """

    def __init__(self, A: sp.csr_matrix, C: sp.csr_matrix):
        self.order = _band_order(A)
        self._inv = _inverse(self.order)
        # each row keeps its entries in the dofs' order, so a sparse C @ x
        # sums as the product in the dofs' order does, bit for bit
        C = C[self.order]
        self.C = sp.csr_matrix((C.data, self._inv[C.indices], C.indptr),
                               shape=C.shape)

    def rows(self, dofs: slice) -> np.ndarray:
        """The rows of the march that hold the dofs ``dofs``."""
        return self._inv[dofs]


def _steps(a: np.ndarray) -> np.ndarray:
    """a, shaped ([m,] n_steps, n), as (n_steps, n[, m]) views: the
    columns of a block side by side."""
    if a.ndim == 2:
        return a
    return np.moveaxis(a, 0, -1)


def _march(fac: Factorization, C, rhs, step) -> None:
    """Run the theta scheme x_k = A^-1 (rhs_k + C x_{k-1}) from
    x_{-1} = 0 over the data terms rhs_k, shaped (n, m) for a block of m
    columns, m = 1 included, and (n,) for one 2-D datum, as _steps lays
    them out (an array of steps, or steps made one at a time), and hand
    each step to step(k, b, x), where b = A x_k is the right-hand side
    just solved.  rhs, C, b and x are in the order fac solves in (the
    _MarchOrder of its pattern), so each step is one ``fac.solve``, of
    all m columns of a block at once, with no gather or scatter, and one
    product with C.  The march keeps no step but the last.  It reads
    rhs_k before it asks for rhs_{k+1} and writes none, so steps made
    one at a time may share one buffer, and step() keeps no b.
    """
    x = None
    for k, b in enumerate(rhs):
        if x is not None:
            b = C @ x + b
        x = fac.solve(b)
        step(k, b, x)


def _filled(fac: Factorization, march: _MarchOrder, rhs,
            u: np.ndarray) -> SpaceTimeField:
    """_march in the order ``march`` with the field-filling consumer:
    step k is scattered once, to the dofs ``march.order`` of u[k + 1], u
    shaped ([m,] n_steps + 1, n_dofs) with a zero step 0 and known values
    at the other dofs.  The field's own finiteness check is the one scan
    of u: a solver trajectory has the field's shape and a zero initial
    slice, so a non-finite value, which propagates to the last step, is
    the only reason it can be refused.
    """
    u_steps, dofs = _steps(u), march.order

    def fill(k, b, x):
        u_steps[k + 1, dofs] = x
    _march(fac, march.C, rhs, fill)
    try:
        return SpaceTimeField(u)
    except ValueError:
        raise SolverFailure(f"non-finite solution from {fac.label}") from None


def _checked_loads(loads, ops: SubdomainOperators | GlobalOperators):
    """Loads as a float array of shape (n_steps, n_dofs) of ``ops``,
    shared by every column of a block; None (zero loads) stays None.
    Other shapes are refused: a solve gathers loads by dof index, and
    the gather would drop extra dofs."""
    if loads is None:
        return None
    loads = np.asarray(loads, dtype=float)
    shape = (ops.grid.n_steps, ops.n_dofs)
    if loads.shape != shape:
        raise ValueError(f"loads shape {loads.shape} does not match {shape}")
    return loads


class SubdomainSolver:
    """Factorized theta-scheme solver for one subdomain.

    Its operators are fixed at construction; what it derives from them
    is cached on first use, so repeated solves with new data are cheap.
    The solver itself caches the march order of the full pattern
    (_full) and a Robin factor per s (_robin), the Dirichlet block
    (_dirichlet_block) and the source field.  rrlab.interface writes
    the other two caches: the Robin trace maps per s (``robin_maps``)
    and the forms of the first Robin probe (``forms``).
    """

    def __init__(self, ops: SubdomainOperators):
        self.ops = ops
        self.A, self.C = build_step_operators(ops)
        nI = ops.n_interior
        self._A_G = self.A[nI:].tocsr()      # interface rows of A
        self._C_G = self.C[nI:].tocsr()
        self._robin: dict[float, Factorization] = {}
        # interface.robin_trace_map keeps its maps here, keyed by s; the
        # first is probed, and leaves the interface.SteklovForms in
        # ``forms``: the column of S_i and the Hankel blocks of the X-norm
        # form, which tracking reads where both solvers keep them
        self.robin_maps: dict[float, object] = {}
        self.forms = None
        self._source = None

    # -- factorizations ---------------------------------------------------

    @cached_property
    def _full(self) -> _MarchOrder:
        """The march order of the Robin matrices, the full pattern."""
        return _MarchOrder(self.A, self.C)

    @cached_property
    def _dirichlet_block(self):
        """The Dirichlet block's march order, its factor, and A_IG and
        C_IG, the interior rows' couplings to the interface, with those
        rows in the march order: the data terms of dirichlet_solve are
        made in it."""
        nI = self.ops.n_interior
        inner = _MarchOrder(self.A[:nI, :nI], self.C[:nI, :nI])
        fac = Factorization(self.A[:nI, :nI], f"subdomain {self.ops.index} "
                            "Dirichlet block", order=inner.order)
        rows = inner.order
        return inner, fac, self.A[:nI, nI:][rows], self.C[:nI, nI:][rows]

    def _robin_factor(self, s: float) -> Factorization:
        key = float(s)
        if not 0.0 < key < np.inf:      # nan fails too
            raise ValueError("Robin parameter s must be finite and positive")
        if key not in self._robin:
            A_rob, _ = build_step_operators(self.ops, s=key)
            self._robin[key] = Factorization(
                A_rob, f"subdomain {self.ops.index} Robin matrix (s={key})",
                order=self._full.order)
        return self._robin[key]

    # -- helpers -----------------------------------------------------------

    def _check_signal(self, signal, kind):
        shape = (self.ops.grid.n_steps, self.ops.n_interface)
        if signal is None:
            return np.zeros(shape)
        if signal.kind != kind:
            raise ValueError(f"expected a {kind} signal, got {signal.kind}")
        if signal.values.ndim > 3 or signal.values.shape[-2:] != shape:
            raise ValueError("signal shape does not match the interface")
        return signal.values

    def block_width(self, column_values: int | None = None) -> int:
        """Columns of a block of independent solves: at most
        BLOCK_VALUES values, and at least one column.  A column holds a
        field, (n_steps + 1) * n_dofs values, unless ``column_values``
        says otherwise."""
        if column_values is None:
            column_values = (self.ops.grid.n_steps + 1) * self.ops.n_dofs
        return max(1, BLOCK_VALUES // column_values)

    def trace(self, u: SpaceTimeField) -> InterfaceSignal:
        """Interface trace of a subdomain field (steps 1..n)."""
        return InterfaceSignal(u.values[..., 1:, self.ops.n_interior:].copy(),
                               "primal")

    # -- solves ------------------------------------------------------------

    def source_field(self) -> SpaceTimeField:
        """The zero-trace solve with the assembled loads, computed once.

        The interface source and the initial Robin sweep both read it,
        so its values are read-only.
        """
        if self._source is None:
            self._source = self.dirichlet_solve(loads=self.ops.loads)
            self._source.values.flags.writeable = False
        return self._source

    def dirichlet_solve(self, eta: InterfaceSignal | None = None,
                        loads: np.ndarray | None = None) -> SpaceTimeField:
        """Solve with prescribed interface trace ``eta`` and given loads.

        With loads = 0 this realizes the harmonic-extension solution
        operator; with eta = 0 it is the interior source solve.  The
        trace of the result equals eta exactly.  A block of traces
        gives a block of fields.
        """
        grid = self.ops.grid
        nI, n = self.ops.n_interior, self.ops.n_dofs
        eta_v = self._check_signal(eta, "primal")
        loads = _checked_loads(loads, self.ops)
        inner, fac, A_IG, C_IG = self._dirichlet_block
        u = np.zeros(eta_v.shape[:-2] + (grid.n_steps + 1, n))
        u[..., 1:, nI:] = eta_v
        # f_I^k - A_IG eta^k + C_IG eta^{k-1}, for all k at once, in the
        # march order
        rhs = -_dofwise(A_IG, eta_v)
        if loads is not None:
            rhs += loads[:, inner.order]
        rhs += _dofwise(C_IG, u[..., :-1, nI:])
        return _filled(fac, inner, _steps(rhs), u)

    def robin_solve(self, s: float, lam: InterfaceSignal | None = None,
                    loads: np.ndarray | None = None, step=None):
        """Solve with Robin interface data ``lam`` (a dual signal).

        Satisfies flux_recovery(u, loads) + s * M_Gamma trace(u) = lam
        exactly, step by step.  A block of data gives a block of fields.
        The right-hand side is made one step at a time, in one buffer, in
        the factor's band order: the loads are gathered into it once, and
        the data written at the interface's rows of it.
        With ``step`` no field is made: each time step is handed to
        step(k, b, x), as _march does, with x the solution at step k + 1
        and b = A_R x (to read during the call only), both at the rows
        ``_full.order`` and shaped as _march's steps: (n_dofs, m) for a
        block of m data, one included, and (n_dofs,) for a 2-D signal,
        and the solve returns None; the caller checks what it keeps.  The
        interface rows are ``_full.rows(slice(n_interior, None))``.
        """
        grid = self.ops.grid
        lam_v = self._check_signal(lam, "dual")
        loads = _checked_loads(loads, self.ops)
        fac, full = self._robin_factor(s), self._full
        nI, n = self.ops.n_interior, self.ops.n_dofs
        rows = full.rows(slice(nI, None))
        if loads is not None:
            loads = loads[:, full.order]

        def rhs():      # one step buffer: _march reads it, keeps C x + it
            lam_steps = _steps(lam_v / grid.tau)
            b = np.zeros((n,) + lam_steps.shape[2:])
            for k, lam_k in enumerate(lam_steps):
                if loads is not None:
                    b.T[...] = loads[k]
                    b[rows] += lam_k
                else:
                    b[rows] = lam_k
                yield b
        if step is not None:
            return _march(fac, full.C, rhs(), step)
        u = np.zeros(lam_v.shape[:-2] + (grid.n_steps + 1, n))
        return _filled(fac, full, rhs(), u)

    def flux_recovery(self, u: SpaceTimeField,
                      loads: np.ndarray | None = None) -> InterfaceSignal:
        """Variational flux: weighted interface-row residual of u.

        sigma^k = tau * (A u^k - C u^{k-1} - f^k) restricted to the
        interface rows.  Dual signal (weight inside), a block of them
        for a block of fields.
        """
        grid = self.ops.grid
        if u.values.shape[-2:] != (grid.n_steps + 1, self.ops.n_dofs):
            raise ValueError("field shape does not match the subdomain")
        loads = _checked_loads(loads, self.ops)
        U, nI = u.values, self.ops.n_interior
        res = (_dofwise(self._A_G, U[..., 1:, :])
               - _dofwise(self._C_G, U[..., :-1, :]))
        if loads is not None:
            res -= loads[:, nI:]
        return InterfaceSignal(grid.tau * res, "dual")


class MonolithicSolver:
    """theta-scheme solver on the undecomposed dof set.  It keeps its
    step matrices only as it marches them: the factor and C, in the
    band order of their pattern."""

    def __init__(self, ops: GlobalOperators):
        self.ops = ops
        A, C = build_step_operators(ops)
        self._order = _MarchOrder(A, C)
        self._factor = Factorization(A, "monolithic step matrix",
                                     order=self._order.order)

    def solve(self, loads: np.ndarray | None = None) -> SpaceTimeField:
        grid = self.ops.grid
        loads = _checked_loads(self.ops.loads if loads is None else loads,
                               self.ops)
        u = np.zeros((grid.n_steps + 1, self.ops.n_dofs))
        # each step's loads enter the band order as the march reads them
        order = self._order.order
        return _filled(self._factor, self._order, (f[order] for f in loads), u)
