"""Shared helpers: random admissible control fields and directions, and
the reference solvers and readers the tests check the package against.

BLAS runs on one thread in the tests: on their small meshes extra threads
only synchronize, and on a machine whose cores are busy they slow the
suite down severalfold. The variables must be set before numpy is first
imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import scipy.sparse as sp  # noqa: E402

from obstacle_control import MatrixControlField, fem  # noqa: E402

Q_MIN = 0.5
Q_MAX = 10.0
# a node is corner 2, 3, 1, 0 of its cells in increasing cell number
# (the cell down-left of it comes first, the one up-right last)
_CELL_ORDER = (2, 3, 1, 0)


def random_admissible(mesh, rng, q_min=Q_MIN, q_max=Q_MAX, margin=0.05):
    """Random control with per-node eigenvalues strictly inside the bounds."""
    lo = q_min + margin * (q_max - q_min)
    hi = q_max - margin * (q_max - q_min)
    lam1 = rng.uniform(lo, hi, mesh.n_nodes)
    lam2 = rng.uniform(lo, hi, mesh.n_nodes)
    th = rng.uniform(0.0, np.pi, mesh.n_nodes)
    c, s = np.cos(th), np.sin(th)
    comps = np.column_stack([
        lam1 * c * c + lam2 * s * s,
        lam1 * s * s + lam2 * c * c,
        (lam1 - lam2) * c * s,
    ])
    return MatrixControlField(mesh, comps)


def random_direction(mesh, rng, scale=1.0):
    """Random symmetric nodal direction field with O(scale) entries."""
    comps = rng.standard_normal((mesh.n_nodes, 3)) * scale
    return MatrixControlField(mesh, comps)


def slice_add_integrate(mesh, density):
    """Reference load vector: the local integrals of every cell summed by
    four strided slice-adds, one per corner, in the order the cells are
    numbered."""
    shape, _, scale = mesh._reference
    n = mesh.cells_per_side
    extra = density.shape[2:]
    flat = np.reshape(density, (mesh.n_cells, 4, -1))
    local = (scale * np.matmul(shape.T, flat)).reshape(n, n, 4, -1)
    grid = np.zeros((n + 1, n + 1, local.shape[-1]))
    for a in _CELL_ORDER:
        di, dj = fem._CORNERS[a]
        grid[dj:dj + n, di:di + n] += local[:, :, a]
    return grid.reshape((mesh.n_nodes,) + extra)


def slice_add_assemble(mesh, local):
    """Reference stencil data of per-cell 4x4 matrices (C, 4, 4), or one
    (4, 4), on every cell: local entry (a, b) always lands in the same
    stencil slot, so each is one strided slice-add over all cells, the
    corners taken in the order the cells are numbered."""
    n = mesh.cells_per_side
    per_cell = np.broadcast_to(local, (n * n, 4, 4)).reshape(n, n, 4, 4)
    grid = np.zeros((n + 1, n + 1, 9))
    for a in _CELL_ORDER:
        ai, aj = fem._CORNERS[a]
        for b in range(4):
            bi, bj = fem._CORNERS[b]
            slot = 3 * (bj - aj + 1) + (bi - ai + 1)
            grid[aj:aj + n, ai:ai + n, slot] += per_cell[:, :, a, b]
    return grid[mesh.valid]


def full_grid_penalty(mesh, u, psi, gamma):
    """Reference penalty kernels on every cell: the gap max(u - psi, 0) at
    the Gauss points, the penalty vector (boundary rows zero) and the
    stencil data of the Jacobian's weighted mass, assembled by the
    slice-adds of `slice_add_assemble`."""
    shape, _, scale = mesh._reference
    gap = np.maximum(mesh.at_quadrature(u) - psi, 0.0)
    vec = slice_add_integrate(mesh, gamma * gap ** 3)
    vec[mesh.boundary_mask] = 0.0
    local = (scale * 3.0 * gamma * gap ** 2) @ fem._outer(shape, shape)
    jac = slice_add_assemble(mesh, local.reshape(mesh.n_cells, 4, 4))
    return gap, vec, jac


def entry_rows(mesh):
    """The row of every entry of the mesh's stencil pattern."""
    return np.repeat(np.arange(mesh.n_nodes), np.diff(mesh.indptr))


def diagonal_entries(mesh):
    """Position in the stencil data of every row's diagonal entry."""
    return np.flatnonzero(entry_rows(mesh) == mesh.indices)


def _pinned_data(mesh, data, mask):
    """Stencil data with the rows and columns flagged by mask set to
    identity, the pinned entries kept as zeros."""
    rows = entry_rows(mesh)
    out = np.where(mask[rows] | mask[mesh.indices], 0.0, data)
    out[diagonal_entries(mesh)[mask]] = 1.0
    return out


def pinned_matrix(system):
    """Reference matrix of a grid system: its stencil data with the rows
    and columns of its mask set to identity, a copy on the mesh's shared
    pattern whose pinned entries stay as explicit zeros."""
    mesh = system.mesh
    return mesh.csr(_pinned_data(mesh, system.data, system.dirichlet_mask))


def compacted_pin(mesh, data, mask):
    """Reference pin: the CSR matrix of stencil data on the mesh with the
    rows and columns flagged by mask set to identity and every zero entry
    dropped, on a pattern of its own."""
    out = _pinned_data(mesh, data, mask)
    keep = out != 0.0
    counts = np.bincount(entry_rows(mesh)[keep], minlength=mesh.n_nodes)
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    return sp.csr_matrix((out[keep], mesh.indices[keep], indptr),
                         shape=(mesh.n_nodes, mesh.n_nodes))


def scatter_band(mat, bandwidth):
    """Reference band: the upper entries of a symmetric CSR matrix within
    `bandwidth` of the diagonal, scattered through their coordinates into
    LAPACK upper band storage."""
    n = mat.shape[0]
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    offset = mat.indices - rows
    upper = offset >= 0
    band = bandwidth - offset[upper]
    assert band.min() >= 0, "matrix entries lie outside the band"
    bands = np.zeros((bandwidth + 1, n))
    bands[band, mat.indices[upper]] = mat.data[upper]
    return bands


def kron_prolongation(level):
    """Reference bilinear prolongation from level - 1 to level: the CSR
    matrix kron(P1, P1) of the 1-D transfer, whose even fine nodes copy
    their coarse node and odd ones average two."""
    n = 2 ** level
    fine = np.arange(n + 1)
    odd = fine[1::2]
    p1 = sp.csr_matrix(
        (np.r_[np.where(fine % 2, 0.5, 1.0), np.full(odd.size, 0.5)],
         (np.r_[fine, odd], np.r_[fine // 2, odd // 2 + 1])),
        shape=(n + 1, n // 2 + 1))
    return sp.kron(p1, p1, format="csr")


def masked_prolongation(level, pinned):
    """D_f P D_c: the reference prolongation with the rows of the pinned
    fine nodes and the columns of the pinned coarse nodes zeroed, a coarse
    node pinned where its fine node is. Returns (P, coarse mask)."""
    n1 = 2 ** level + 1
    coarse = pinned.reshape(n1, n1)[::2, ::2].ravel()
    p = kron_prolongation(level)
    rows = np.repeat(pinned, np.diff(p.indptr))
    p.data[rows | coarse[p.indices]] = 0.0
    return p, coarse


def reference_hierarchy(mat, pinned, level):
    """The multigrid hierarchy of a pinned matrix by sparse matrix
    products, set up as one whose pinned rows are identity: per grid above
    the coarsest its matrix, Jacobi weights from every row and masked
    prolongation, and the coarsest Galerkin operator P'AP, with identity
    rows on its pinned nodes."""
    grids = []
    while level > fem.COARSEST_LEVEL:
        p, coarse = masked_prolongation(level, pinned)
        l1 = np.add.reduceat(np.abs(mat.data), mat.indptr[:-1])
        grids.append((mat, np.minimum(fem._OMEGA / mat.diagonal(),
                                      fem._L1_CAP / l1), p))
        mat = (p.T.tocsr() @ (mat @ p)
               + sp.diags(coarse.astype(float))).tocsr()
        pinned = coarse
        level -= 1
    return grids, mat


def galerkin_reference(system):
    """The coarsest operator of the reference hierarchy, computed from the
    compacted pinned matrix of a grid system."""
    mat = compacted_pin(system.mesh, system.data, system.dirichlet_mask)
    return reference_hierarchy(mat, system.dirichlet_mask,
                               system.mesh.level)[1]


def stencil_slots(mat, n1):
    """Reference slot-major (3, 3, n1, n1) grid of a nine-point matrix on
    the n1 x n1 grid nodes, scattered through its coordinates: entry (row,
    col) goes to slot (dj + 1, di + 1) of its row's node."""
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    dj = mat.indices // n1 - rows // n1
    di = mat.indices % n1 - rows % n1
    assert np.abs(dj).max() <= 1 and np.abs(di).max() <= 1, \
        "matrix entries lie outside the nine-point stencil"
    grid = np.zeros((3, 3, n1 * n1))
    grid[dj + 1, di + 1, rows] = mat.data
    return grid.reshape(3, 3, n1, n1)


def oracle_active_set_enumeration(K, f, psi, tol=1e-11):
    """Brute-force reference solution of the dense obstacle problem.

    Tries every active subset of the (interior) dense system K u + mu = f,
    u <= psi, mu >= 0 supported on the subset, and returns the unique
    feasible configuration as (u, mu) with mu the unscaled residual
    multiplier f - K u. The dimension must be at most 20.
    """
    n = K.shape[0]
    if n > 20:
        raise ValueError("enumeration oracle limited to dimension 20")
    scale = max(1.0, float(np.abs(f).max()), abs(psi))
    for bits in range(2 ** n):
        active = np.array([(bits >> k) & 1 for k in range(n)], dtype=bool)
        inactive = ~active
        u = np.full(n, psi, dtype=float)
        if inactive.any():
            kii = K[np.ix_(inactive, inactive)]
            rhs = f[inactive] - K[np.ix_(inactive, active)] @ u[active]
            u[inactive] = np.linalg.solve(kii, rhs)
        mu = np.zeros(n)
        mu[active] = (f - K @ u)[active]
        if np.all(u <= psi + tol * scale) and np.all(mu >= -tol * scale):
            return u, mu
    raise RuntimeError("no feasible active-set configuration found")


def read_structured_vtk(path):
    """Read back a legacy structured-grid file written by the package.

    Returns (points, point_data) with points shaped (n, 2) and point_data
    a dict of nodal arrays.
    """
    with open(path) as handle:
        lines = [line for line in handle.read().split("\n") if line.strip()]
    # header comment, title, ASCII
    if lines[3].split() != ["DATASET", "STRUCTURED_GRID"]:
        raise ValueError("not a structured-grid file")
    n_points = int(lines[5].split()[1])
    points = np.array([line.split()[:2] for line in lines[6:6 + n_points]],
                      dtype=float)
    idx = 6 + n_points
    if int(lines[idx].split()[1]) != n_points:
        raise ValueError("point data size mismatch")
    idx += 1
    data = {}
    while idx < len(lines) and lines[idx].split()[0] == "SCALARS":
        name = lines[idx].split()[1]
        start = idx + 2  # past LOOKUP_TABLE
        data[name] = np.array(lines[start:start + n_points], dtype=float)
        idx = start + n_points
    return points, data
