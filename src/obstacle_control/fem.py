"""Q1 finite elements on structured grids of the square (-1, 1)^2.

Uniform quadrilateral meshes at dyadic refinement levels, bilinear shape
functions with 2x2 Gauss quadrature, and assembly of the sparse operators
used throughout the package: stiffness with a symmetric 2x2 matrix
coefficient, consistent and lumped mass, and load vectors. The mesh owns
the CSR pattern of its nine-point stencil, which every operator on it
shares, and one scatter of per-cell matrices writes their data. Homogeneous
Dirichlet conditions, and every other pinned node, are imposed by
symmetric row/column elimination with identity diagonal (a mask on that
data, never a copy of it), so all operators stay usable by symmetric
solvers. A pinned operator is a `GridSystem`: its mesh, unpinned stencil
data and the mask of its pinned nodes. It derives the systems that pin
more nodes or add data on the same mesh, and builds once the geometric
multigrid preconditioner its solves use: its coarse operators are formed
on slot grids of stencil data, one axis at a time, with no sparse matrix
product, on the chain of coarser meshes each mesh builds once, and its
coarsest grid is factored from a band read off five slots. The bilinear
grid transfers are separable too. The consistent mass matrix is a
Kronecker product of 1-D masses, solved exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, TYPE_CHECKING

import numpy as np
import scipy.sparse as sp
from scipy.linalg import cho_solve_banded, cholesky_banded

from .errors import CapacityError, DimensionError, NonFiniteError, \
    SolverError

if TYPE_CHECKING:
    from .control import MatrixControlField

MAX_LEVEL = 12
# Gauss points per axis and cell of l2_error_vs_function, and the cells
# it evaluates at once
_ERROR_ORDER = 4
_ERROR_BLOCK = 4096

# local node order on the reference square [-1,1]^2, counter-clockwise
_XI = np.array([-1.0, 1.0, 1.0, -1.0])
_ETA = np.array([-1.0, -1.0, 1.0, 1.0])
# grid offset (di, dj) of each local node from its cell's first corner
_CORNERS = ((0, 0), (1, 0), (1, 1), (0, 1))
# stencil slot 3*(dj+1) + (di+1) at local node a of its coupling to b
_SLOTS = np.array([[3 * (bj - aj + 1) + bi - ai + 1 for bi, bj in _CORNERS]
                   for ai, aj in _CORNERS])


def _shape_values(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Bilinear shape functions N_a at reference points; shape (npts, 4)."""
    return 0.25 * (1.0 + np.outer(xi, _XI)) * (1.0 + np.outer(eta, _ETA))


def _shape_gradients(xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Reference gradients dN_a/d(xi,eta) at reference points; (npts, 4, 2)."""
    npts = len(xi)
    grads = np.empty((npts, 4, 2))
    grads[:, :, 0] = 0.25 * _XI * (1.0 + np.outer(eta, _ETA))
    grads[:, :, 1] = 0.25 * _ETA * (1.0 + np.outer(xi, _XI))
    return grads


def _outer(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Per-point outer products s[g, a] * t[g, b] as a (4, 16) array."""
    return (s[:, :, None] * t[:, None, :]).reshape(4, 16)


class StructuredMesh:
    """Uniform quadrilateral mesh of (-1,1)^2 with 2^level cells per side.

    Nodes are numbered row by row: node (i, j) sits at index j*(n+1)+i with
    coordinates (-1 + i*h, -1 + j*h). Cells store their four corner nodes
    counter-clockwise. All arrays are frozen after construction.

    The mesh also owns the CSR pattern of the Q1 nine-point stencil, which
    every operator assembled on it shares: node (i, j) couples to
    (i+di, j+dj) for di, dj in {-1, 0, 1}, slot 3*(dj+1) + (di+1) of the
    (n+1, n+1, 9) slot grid that `assemble` writes. Gathering the slots
    whose neighbour exists (`valid`), in row-major order, gives the CSR
    data (`nnz` entries) with sorted column indices. `csr` wraps data on
    it as a matrix, so sums act on data. The mesh one level down is
    `coarse`, built once and shared by the multigrid hierarchy and the
    nested obstacle solve; `prolong` and `restrict` transfer nodal values
    between the two.

    Attributes
    ----------
    level : int
        Dyadic refinement level.
    cells_per_side : int
        2**level cells along each axis.
    h : float
        Cell width, 2 / cells_per_side.
    nodes : ndarray, shape (n_nodes, 2)
    cells : ndarray, shape (n_cells, 4)
    boundary_mask : ndarray of bool, shape (n_nodes,)
    """

    def __init__(self, level: int):
        if level < 0:
            raise ValueError(f"level must be nonnegative, got {level}")
        if level > MAX_LEVEL:
            raise CapacityError(
                f"level {level} exceeds the memory guard (max {MAX_LEVEL})")
        n = 2 ** level
        n1 = n + 1
        self.level = level
        self.cells_per_side = n
        self.h = 2.0 / n
        xs = -1.0 + self.h * np.arange(n1)
        xs[-1] = 1.0
        X, Y = np.meshgrid(xs, xs)
        self.nodes = np.column_stack([X.ravel(), Y.ravel()])
        ii, jj = np.meshgrid(np.arange(n), np.arange(n))
        v0 = (jj * n1 + ii).ravel()
        self.cells = np.column_stack([v0, v0 + 1, v0 + n1 + 1, v0 + n1])
        jj, ii = np.divmod(np.arange(n1 * n1), n1)
        self.boundary_mask = (ii == 0) | (ii == n) | (jj == 0) | (jj == n)
        dj, di = np.divmod(np.arange(9), 3)
        nbr_i = ii[:, None] + di - 1
        nbr_j = jj[:, None] + dj - 1
        valid = (nbr_i >= 0) & (nbr_i <= n) & (nbr_j >= 0) & (nbr_j <= n)
        self.valid = valid.reshape(n1, n1, 9)
        self.indptr = np.concatenate(
            [[0], np.cumsum(valid.sum(axis=1))]).astype(np.int32)
        self.indices = (nbr_j * n1 + nbr_i)[valid].astype(np.int32)
        self.nnz = self.indices.shape[0]
        for arr in (self.nodes, self.cells, self.boundary_mask, self.valid,
                    self.indptr, self.indices):
            arr.flags.writeable = False

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_cells(self) -> int:
        return self.cells.shape[0]

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    @cached_property
    def _reference(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Shape values, physical gradients, and w*detJ at the 2x2 rule."""
        g = 1.0 / np.sqrt(3.0)
        xi = np.array([-g, g, g, -g])
        eta = np.array([-g, -g, g, g])
        shape = _shape_values(xi, eta)
        # affine cells: J = (h/2) I, so physical gradients scale by 2/h
        grads = _shape_gradients(xi, eta) * (2.0 / self.h)
        scale = self.h * self.h / 4.0
        return shape, grads, scale

    def at_quadrature(self, values: np.ndarray, cells=None) -> np.ndarray:
        """Nodal values (n_nodes, ...) interpolated to the 2x2 Gauss points
        of the given cells (every cell when None); shape (k, 4, ...)."""
        shape, _, _ = self._reference
        nodes = self.cells if cells is None else self.cells[cells]
        flat = values.reshape(self.n_nodes, -1)[nodes]
        return np.matmul(shape, flat).reshape(nodes.shape + values.shape[1:])

    def gradients_at_quadrature(self, values: np.ndarray) -> np.ndarray:
        """Physical gradients of nodal values (n_nodes,) at the 2x2 Gauss
        points of every cell; shape (n_cells, 4, 2)."""
        _, grads, _ = self._reference
        return np.tensordot(values[self.cells], grads, axes=(1, 1))

    def integral(self, density: np.ndarray) -> float:
        """Integral of a density given at the 2x2 Gauss points."""
        _, _, scale = self._reference
        return scale * float(np.sum(density))

    def integrate(self, density: np.ndarray, cells=None) -> np.ndarray:
        """Load vector integral(f phi_i) of densities f given at the 2x2
        Gauss points of the given cells (every cell when None), (k, 4, ...);
        shape (n_nodes, ...). Terms add in increasing cell order, as in
        `assemble`, by one bincount per column."""
        shape, _, scale = self._reference
        nodes = (self.cells if cells is None else self.cells[cells]).ravel()
        extra = density.shape[2:]
        columns = np.prod(extra, dtype=int)
        flat = np.reshape(density, (-1, 4, columns))
        local = (scale * np.matmul(shape.T, flat)).reshape(-1, columns)
        return np.column_stack([
            np.bincount(nodes, column, minlength=self.n_nodes)
            for column in local.T]).reshape((self.n_nodes,) + extra)

    def assemble(self, local: np.ndarray, cells=None) -> np.ndarray:
        """Stencil data, unpinned, of per-cell 4x4 matrices (k, 4, 4), or
        one (4, 4), on the given cells (every cell when None): entry (a, b)
        adds to slot _SLOTS[a, b] of node a on the (n+1)^2 x 9 slot grid,
        by one bincount in increasing cell order."""
        nodes = self.cells if cells is None else self.cells[cells]
        # np.broadcast_to gives a read-only view, which bincount would copy
        index, weights = np.broadcast_arrays(9 * nodes[:, :, None] + _SLOTS,
                                             local)
        grid = np.bincount(index.ravel(), weights.ravel(),
                           minlength=9 * self.n_nodes)
        del index  # the largest array here goes before the gather allocates
        return grid[self.valid.ravel()]

    def mass_data(self, weight: np.ndarray, cells: np.ndarray) -> np.ndarray:
        """Stencil data, unpinned, of the mass matrix weighted by a density
        at the 2x2 Gauss points of the given cells, (k, 4)."""
        shape, _, scale = self._reference
        local = (scale * weight) @ _outer(shape, shape)
        return self.assemble(local.reshape(-1, 4, 4), cells)

    def _mass(self) -> sp.csr_matrix:
        shape, _, scale = self._reference
        return self.csr(self.assemble(scale * (shape.T @ shape)))

    @cached_property
    def mass_matrix(self) -> sp.csr_matrix:
        """Consistent mass matrix, no boundary elimination."""
        return self._mass()

    @cached_property
    def mass_operator(self) -> "KroneckerMass":
        """The consistent mass matrix with its exact tensor-product solve."""
        return KroneckerMass(self)

    @cached_property
    def lumped_mass(self) -> np.ndarray:
        """Row sums of the consistent mass matrix (all positive for Q1),
        of a copy that is not kept: an obstacle solve needs only these, and
        the coarse meshes it solves on live as long as their fine mesh."""
        return np.asarray(self._mass().sum(axis=1)).ravel()

    @cached_property
    def coarse(self) -> "StructuredMesh":
        """The mesh one level down, built once: its nodes are this mesh's
        even-even nodes, and `prolong` and `restrict` map between them."""
        return StructuredMesh(self.level - 1)

    def prolong(self, values: np.ndarray) -> np.ndarray:
        """Bilinear interpolation P v onto this mesh of nodal values on
        `coarse`, one axis at a time: an even fine node copies its coarse
        node, an odd one takes half of each of its two."""
        n1 = self.cells_per_side + 1
        c = values.reshape(n1 // 2 + 1, -1)
        rows = np.empty((c.shape[0], n1))
        rows[:, ::2] = c
        rows[:, 1::2] = 0.5 * (c[:, :-1] + c[:, 1:])
        out = np.empty((n1, n1))
        out[::2] = rows
        out[1::2] = 0.5 * (rows[:-1] + rows[1:])
        return out.ravel()

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The transpose P' v on `coarse` of nodal values on this mesh, one
        axis at a time: a coarse node takes its even fine node and half of
        each odd neighbour. P' maps a load vector to the coarse load vector
        of the same density, since every coarse basis function is the
        P-combination of fine ones."""
        n1 = self.cells_per_side + 1
        fine = values.reshape(n1, n1)
        odd = 0.5 * fine[:, 1::2]
        rows = fine[:, ::2].copy()
        rows[:, 1:] += odd
        rows[:, :-1] += odd
        odd = 0.5 * rows[1::2]
        out = rows[::2].copy()
        out[1:] += odd
        out[:-1] += odd
        return out.ravel()

    def csr(self, data: np.ndarray) -> sp.csr_matrix:
        """CSR matrix with the given data on this mesh's pattern."""
        if data.shape != (self.nnz,):
            raise DimensionError(
                f"expected {self.nnz} stencil entries, got {data.shape}")
        return sp.csr_matrix((data, self.indices, self.indptr),
                             shape=(self.n_nodes, self.n_nodes))

    def __repr__(self) -> str:
        return f"StructuredMesh(level={self.level})"


class KroneckerMass:
    """Consistent Q1 mass matrix of a structured mesh, solved exactly.

    With nodes numbered row by row, the mass matrix is kron(M1, M1) where
    M1 is the 1-D Q1 mass, tridiagonal h/6 [1 4 1] with h/3 at both ends.
    A solve is one banded Cholesky solve of M1 along each grid axis, for
    any number of right-hand-side columns at once (Lynch, Rice & Thomas,
    Numer. Math. 6, 1964). `solve_spd` recognizes this operator.
    """

    def __init__(self, mesh: StructuredMesh):
        n1 = mesh.cells_per_side + 1
        h = mesh.h
        bands = np.empty((2, n1))
        bands[0] = h / 6.0
        bands[1] = 4.0 * h / 6.0
        bands[1, [0, -1]] = h / 3.0
        self.matrix = mesh.mass_matrix
        self._n1 = n1
        self._factor = cholesky_banded(bands)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """M^{-1} b for b of shape (n_nodes,) or (n_nodes, k)."""
        n1 = self._n1
        factor = (self._factor, False)
        # rows of the node grid are the j axis: solve along j, then along i
        x = cho_solve_banded(factor, b.reshape(n1, -1), check_finite=False)
        x = x.reshape(n1, n1, -1).transpose(1, 0, 2).reshape(n1, -1)
        x = cho_solve_banded(factor, x, check_finite=False)
        return x.reshape(n1, n1, -1).transpose(1, 0, 2).reshape(b.shape)


def build_mesh(level: int) -> StructuredMesh:
    """Build the uniform mesh of (-1,1)^2 at the given refinement level."""
    return StructuredMesh(level)


@dataclass(frozen=True)
class ScalarField:
    """Nodal coefficients of a continuous piecewise-bilinear function."""

    mesh: StructuredMesh
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.mesh.n_nodes,):
            raise DimensionError(
                f"expected {self.mesh.n_nodes} nodal values, got {vals.shape}")
        finite = np.isfinite(vals)
        if not finite.all():
            raise NonFiniteError("field has a non-finite value at node "
                                 f"{int(np.argmin(finite))}")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __add__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(same_mesh(self, other), self.values + other.values)

    def __sub__(self, other: "ScalarField") -> "ScalarField":
        return ScalarField(same_mesh(self, other), self.values - other.values)

    def __mul__(self, s: float) -> "ScalarField":
        return ScalarField(self.mesh, self.values * s)

    __rmul__ = __mul__


def same_mesh(*operands) -> StructuredMesh:
    """The one mesh that operands (fields, controls, grid systems) live
    on, None operands skipped: the package's one check that they share a
    mesh. Raises DimensionError when they do not."""
    meshes = [op.mesh for op in operands if op is not None]
    if any(mesh is not meshes[0] for mesh in meshes):
        raise DimensionError("operands live on different meshes")
    return meshes[0]


def interpolate(mesh: StructuredMesh, f: Callable) -> ScalarField:
    """Nodal interpolant of a pointwise function f(x, y)."""
    return ScalarField(mesh, f(mesh.nodes[:, 0], mesh.nodes[:, 1]))


# the multigrid hierarchy ends in an exact banded Cholesky solve on the
# first grid with at most 2**COARSEST_LEVEL cells per side
COARSEST_LEVEL = 5
# Jacobi damping of the smoother, capped per row below 2 / (row l1-norm)
_OMEGA = 0.8
_L1_CAP = 1.8
# The Galerkin product P'AP of a nine-point operator, along one axis: the
# entry of coarse node I at coarse offset D sums w(a) w(b) times the entry
# of fine node 2I + a at stencil offset d, with b = a + d - 2D the offset
# of the fine column from the coarse column's fine node and w the weights
# of the 1-D prolongation (Trottenberg, Oosterlee & Schueller, Multigrid,
# 2001, A.3), w(0) = 1 and w(+-1) = 1/2. Each term is (slot d, fine nodes
# 2I + a as a slice of the fine axis, slot D, the coarse nodes I that have
# one, weight):
_FINE_OF = {-1: slice(1, None, 2), 0: slice(0, None, 2), 1: slice(1, None, 2)}
_COARSE_OF = {-1: slice(1, None), 0: slice(None), 1: slice(None, -1)}
_GALERKIN_TERMS = tuple(
    (d + 1, _FINE_OF[a], D + 1, _COARSE_OF[a],
     (2 - abs(a)) * (2 - abs(a + d - 2 * D)) / 4)
    for a in (-1, 0, 1) for d in (-1, 0, 1) for D in (-1, 0, 1)
    if abs(a + d - 2 * D) <= 1)


@dataclass(frozen=True)
class GridSystem:
    """SPD system on the nine-point stencil of a mesh's (2^L + 1)^2 nodes.

    Held as its mesh, stencil data on the mesh's pattern, unpinned, and
    the boolean mask of the nodes it pins (boundary nodes, and whatever
    else a solver pins), with no pinned copy: `K @ v` is the product, bit
    for bit, of the data with identity rows and columns there. `solve_spd`
    zeroes the right-hand side there, so the solution is exactly zero on
    them, and solves the rest by conjugate gradients preconditioned with
    the geometric multigrid V-cycle of `multigrid`, set up once per system
    and cached. `pin` and `plus` derive the systems the solvers need from
    one stiffness, on its mesh: each keeps every node its source pins.
    """

    mesh: StructuredMesh
    data: np.ndarray
    dirichlet_mask: np.ndarray

    def __post_init__(self):
        if self.dirichlet_mask.dtype != bool:
            raise TypeError("a grid system's mask must be boolean, not "
                            f"{self.dirichlet_mask.dtype}")
        if self.data.shape != (self.mesh.nnz,) \
                or self.dirichlet_mask.shape != (self.mesh.n_nodes,):
            raise DimensionError(
                "a grid system is data on a mesh's stencil with a mask of "
                "its nodes")

    @cached_property
    def _csr(self) -> sp.csr_matrix:
        """The unpinned matrix of the data, a view that shares it."""
        return self.mesh.csr(self.data)

    def pin(self, mask: np.ndarray) -> "GridSystem":
        """This system with the nodes of mask pinned too, on the same
        data. Raises DimensionError unless mask has one entry per node."""
        if np.shape(mask) != self.dirichlet_mask.shape:
            raise DimensionError("mask must have one entry per node")
        return GridSystem(self.mesh, self.data, self.dirichlet_mask | mask)

    def plus(self, data: np.ndarray) -> "GridSystem":
        """The system of the sum with other data on the mesh, pinned on the
        same nodes; DimensionError unless data fills the stencil."""
        if np.shape(data) != self.data.shape:
            raise DimensionError("data must have one entry per stencil entry")
        return GridSystem(self.mesh, self.data + data, self.dirichlet_mask)

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        # identity on the pinned rows; elsewhere the pinned columns drop out
        out = self._csr @ np.where(self.dirichlet_mask, 0.0, v)
        out[self.dirichlet_mask] = v[self.dirichlet_mask]
        return out

    @cached_property
    def multigrid(self) -> Callable[[np.ndarray], np.ndarray]:
        """Symmetric V-cycle r -> z approximating the inverse of the matrix,
        set up once per system from the unpinned data and the mask.

        Each grid above the coarsest is smoothed by two damped-Jacobi
        sweeps before and after its coarse correction; a pinned row gets
        weight 0, so the smoother never writes a pinned node. With D the
        diagonal 0/1 matrix of a grid's free nodes and P the bilinear
        transfer of `StructuredMesh.prolong`, the coarse operator is
        Galerkin, D_c P' (D_f A D_f) P D_c, and the transfers are the
        restriction D_c P' D_f and the prolongation D_f P. A coarse node is
        pinned where its fine node is, so every free coarse node keeps its
        own free fine node and the coarse operator stays positive definite
        on the free nodes. Every operator is set up as slot-major stencil
        data (`_slot_grid`) with its pinned rows and columns zeroed, and
        coarsened one axis at a time (`_galerkin`), without a sparse
        matrix product; the V-cycle multiplies by the system's own data on
        the finest grid and by the coarse stencils on the mesh's coarser
        meshes. The coarsest grid (at most 32 cells per side) is solved
        exactly by banded Cholesky, its band read off five slots of its
        grid (`_band`), so below level 6 the V-cycle is a direct solve.
        Raises SolverError on a nonpositive free diagonal entry of any
        grid and on a failed coarsest factor.
        """
        mesh, pinned = self.mesh, self.dirichlet_mask
        mat, grid = self._csr, _slot_grid(mesh, self.data, pinned)
        grids = []
        while True:
            diag, free = grid[1, 1].ravel(), ~pinned
            if not np.all(diag[free] > 0.0):
                raise SolverError("matrix has a nonpositive diagonal entry")
            if mesh.level <= COARSEST_LEVEL:
                break
            # l1 over the free columns, which are all the grid keeps
            l1 = sum(np.abs(slot) for slot in grid.reshape(9, -1))
            weights = np.zeros(pinned.shape)
            weights[free] = np.minimum(_OMEGA / diag[free],
                                       _L1_CAP / l1[free])
            n1 = mesh.cells_per_side + 1
            coarse = pinned.reshape(n1, n1)[::2, ::2].ravel()
            grids.append((mesh, mat, weights, pinned, coarse))
            grid = _galerkin(grid, coarse)
            mesh, pinned = mesh.coarse, coarse
            if mesh.level > COARSEST_LEVEL:
                # the gather that undoes _slot_grid's scatter
                mat = mesh.csr(
                    grid.reshape(9, -1).T[mesh.valid.reshape(-1, 9)])
        try:
            factor = (cholesky_banded(_band(grid, pinned), overwrite_ab=True,
                                      check_finite=False), False)
        except np.linalg.LinAlgError as exc:
            raise SolverError("banded Cholesky factorization of the coarsest "
                              f"grid failed: {exc}") from exc

        def vcycle(r: np.ndarray) -> np.ndarray:
            # down: smooth from zero, restrict the residual; up: correct
            # from the coarser grid, smooth again
            down = []
            for mesh, a, s, fine, coarse in grids:
                x = s * r
                x += s * (r - a @ x)
                down.append((x, r))
                r = np.where(coarse, 0.0, mesh.restrict(
                    np.where(fine, 0.0, r - a @ x)))
            e = cho_solve_banded(factor, r, check_finite=False)
            for (mesh, a, s, fine, _), (x, r) in zip(reversed(grids),
                                                     reversed(down)):
                x += np.where(fine, 0.0, mesh.prolong(e))
                x += s * (r - a @ x)
                x += s * (r - a @ x)
                e = x
            return e

        return vcycle


def _slot_grid(mesh: StructuredMesh, data: np.ndarray,
               pinned: np.ndarray) -> np.ndarray:
    """Stencil data on the mesh's pattern as the slot-major (3, 3, n1, n1)
    grid: [dj + 1, di + 1, j, i] holds the entry of node (i, j) at its
    neighbour (i + di, j + dj), zero where either node is pinned."""
    n1 = mesh.cells_per_side + 1
    grid = np.zeros((3, 3, n1, n1))
    grid.reshape(9, -1).T[mesh.valid.reshape(-1, 9)] = data
    _mask(grid, pinned)
    return grid


def _mask(grid: np.ndarray, pinned: np.ndarray) -> None:
    """Zero in place the rows and columns of the pinned nodes on a
    slot-major grid, and every slot whose neighbour is off the grid."""
    n1 = grid.shape[-1]
    pinned = pinned.reshape(n1, n1)
    cut = np.ones((n1 + 2, n1 + 2), dtype=bool)
    cut[1:-1, 1:-1] = pinned
    for dj in range(3):
        for di in range(3):
            np.copyto(grid[dj, di], 0.0,
                      where=pinned | cut[dj:dj + n1, di:di + n1])


def _galerkin(grid: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """The coarse slot grid D_c P' A P D_c of a fine slot grid A, coarse
    nodes pinned by the mask pinned: P = P1 x P1, so P'AP is one pass of
    _GALERKIN_TERMS along i and one along j."""
    for axis in (1, 0):
        shape = list(grid.shape)
        shape[axis + 2] = shape[axis + 2] // 2 + 1
        out = np.zeros(shape)
        src, dst = [slice(None)] * 4, [slice(None)] * 4
        for d, fine, D, coarse, w in _GALERKIN_TERMS:
            src[axis], src[axis + 2] = d, fine
            dst[axis], dst[axis + 2] = D, coarse
            out[tuple(dst)] += w * grid[tuple(src)]
        grid = out
    _mask(grid, pinned)
    return grid


def _band(grid: np.ndarray, pinned: np.ndarray) -> np.ndarray:
    """LAPACK upper band storage (kd = n1 + 1) of the symmetric nine-point
    matrix of a masked slot grid on n1 x n1 nodes, with identity rows on
    the pinned nodes: the diagonal and the slots (di, dj) = (1, 0),
    (-1, 1), (0, 1) and (1, 1) at offsets 1, n1 - 1, n1 and n1 + 1. Each
    entry is one slot's value added to zero, so copied: at n1 = 2, where
    the second and third slots share a diagonal, no node has both."""
    n1 = grid.shape[-1]
    kd, n = n1 + 1, n1 * n1
    bands = np.zeros((kd + 1, n))
    for dj, di in ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1)):
        offset = dj * n1 + di
        bands[kd - offset, offset:] += \
            grid[dj + 1, di + 1].ravel()[:n - offset]
    bands[kd, pinned] = 1.0
    return bands


def assemble_stiffness(mesh: StructuredMesh,
                       q: "MatrixControlField") -> GridSystem:
    """Stiffness system of the form (q grad u, grad v), pinned on the
    boundary.

    The nodal matrix coefficient q (components q11, q22, q12) may be any
    symmetric field, such as a sign-indefinite control direction; it is
    interpolated bilinearly to the 2x2 Gauss points of every cell. Nothing
    here checks that q is positive definite: a control's state operator is
    `MatrixControlField.stiffness`, which does.
    """
    if q.mesh is not mesh:
        raise DimensionError("coefficient lives on a different mesh")
    _, grads, scale = mesh._reference
    qg = mesh.at_quadrature(q.comps)
    q11, q22, q12 = qg[:, :, 0], qg[:, :, 1], qg[:, :, 2]
    gx, gy = grads[:, :, 0], grads[:, :, 1]
    # ke[c, a, b] = scale * sum_g grad phi_a . q(g) grad phi_b: one product
    # per component with the (g, a*b) outer products of the gradients
    ke = scale * (q11 @ _outer(gx, gx) + q22 @ _outer(gy, gy)
                  + q12 @ (_outer(gx, gy) + _outer(gy, gx)))
    # the Gauss-point coefficient goes before the scatter builds its index
    del qg, q11, q22, q12
    data = mesh.assemble(ke.reshape(mesh.n_cells, 4, 4))
    return GridSystem(mesh, data, mesh.boundary_mask)


def assemble_load(mesh: StructuredMesh, f: Callable) -> ScalarField:
    """Load vector with components integral(f * phi_i), 2x2 Gauss per cell."""
    xg = mesh.at_quadrature(mesh.nodes)
    fg = f(xg[:, :, 0], xg[:, :, 1])
    fg = np.broadcast_to(np.asarray(fg, dtype=float), xg.shape[:2])
    return ScalarField(mesh, mesh.integrate(fg))


def l2_inner(a: ScalarField, b: ScalarField) -> float:
    """L2 inner product through the consistent mass matrix."""
    return float(a.values @ (same_mesh(a, b).mass_matrix @ b.values))


def l2_norm(v: ScalarField) -> float:
    """L2 norm sqrt(v' M v) with the consistent mass matrix."""
    return float(np.sqrt(max(l2_inner(v, v), 0.0)))


def l2_error_vs_function(field: ScalarField, exact: Callable) -> float:
    """L2 distance between a nodal field and a pointwise function.

    Evaluates the bilinear interpolant and the exact function on a 4x4
    tensor Gauss rule per cell, so the discretization error of the field
    itself dominates the result. The per-cell integrals are filled in
    blocks of _ERROR_BLOCK cells, which bounds the temporaries, and summed
    once.
    """
    mesh = field.mesh
    pts, wts = np.polynomial.legendre.leggauss(_ERROR_ORDER)
    xi, eta = np.meshgrid(pts, pts)
    xi, eta = xi.ravel(), eta.ravel()
    w2 = np.outer(wts, wts).ravel() * mesh.h * mesh.h / 4.0
    shape = _shape_values(xi, eta)
    per_cell = np.empty(mesh.n_cells)
    for start in range(0, mesh.n_cells, _ERROR_BLOCK):
        cells = mesh.cells[start:start + _ERROR_BLOCK]
        uh = field.values[cells] @ shape.T
        xg = shape @ mesh.nodes[cells]
        ue = exact(xg[:, :, 0], xg[:, :, 1])
        per_cell[start:start + len(cells)] = (uh - ue) ** 2 @ w2
    err2 = per_cell.sum()
    return float(np.sqrt(max(err2, 0.0)))
