"""Mesh construction, assembly, and norms against independent oracles."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
import sympy
from scipy.linalg import cho_solve_banded, cholesky_banded

from obstacle_control import (
    CapacityError,
    CoefficientError,
    MatrixControlField,
    NonFiniteError,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    interpolate,
    l2_error_vs_function,
    l2_norm,
)

from obstacle_control import fem
from obstacle_control.fem import COARSEST_LEVEL

from conftest import compacted_pin, entry_rows, galerkin_reference, \
    kron_prolongation, masked_prolongation, pinned_matrix, \
    random_admissible, random_direction, reference_hierarchy, scatter_band, \
    slice_add_assemble, slice_add_integrate, stencil_slots

SEED = 20260819


def manufactured_load(x, y):
    return (1.0 - y ** 2) * (6.0 * x ** 2 + 2.0) + 2.0 * (1.0 - x ** 2)


def desired_state(x, y):
    return (1.0 - x ** 2) * (1.0 - y ** 2)


def q_d_components(x, y):
    return 1.0 + x ** 2, np.ones_like(x), np.zeros_like(x)


# ---------------------------------------------------------------- oracles

def _oracle_shape(xi, eta):
    return 0.25 * np.array([
        (1 - xi) * (1 - eta),
        (1 + xi) * (1 - eta),
        (1 + xi) * (1 + eta),
        (1 - xi) * (1 + eta),
    ])


def _oracle_grad(xi, eta):
    return 0.25 * np.array([
        [-(1 - eta), -(1 - xi)],
        [(1 - eta), -(1 + xi)],
        [(1 + eta), (1 + xi)],
        [-(1 + eta), (1 - xi)],
    ])


def energy_quadrature_oracle(mesh, q, v, order=4):
    """Direct quadrature of integral(q grad v . grad v), cell by cell."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    jac = mesh.h / 2.0
    total = 0.0
    for cell in mesh.cells:
        vloc = v.values[cell]
        qloc = q.comps[cell]
        for xi, wx in zip(pts, wts):
            for eta, wy in zip(pts, wts):
                grad = _oracle_grad(xi, eta) / jac
                gv = grad.T @ vloc
                qq = _oracle_shape(xi, eta) @ qloc
                qmat = np.array([[qq[0], qq[2]], [qq[2], qq[1]]])
                total += wx * wy * jac * jac * (gv @ qmat @ gv)
    return total


def l2_error_quadrature_oracle(v, fn, order=4):
    """Direct quadrature of integral((v - fn)^2), cell by cell."""
    mesh = v.mesh
    pts, wts = np.polynomial.legendre.leggauss(order)
    jac = mesh.h / 2.0
    total = 0.0
    for cell in mesh.cells:
        for xi, wx in zip(pts, wts):
            for eta, wy in zip(pts, wts):
                shape = _oracle_shape(xi, eta)
                x, y = shape @ mesh.nodes[cell]
                diff = shape @ v.values[cell] - fn(x, y)
                total += wx * wy * jac * jac * diff * diff
    return np.sqrt(total)


def domain_integral_oracle(fn, order=6):
    """Tensor Gauss quadrature of fn over (-1,1)^2 in one macro cell."""
    pts, wts = np.polynomial.legendre.leggauss(order)
    X, Y = np.meshgrid(pts, pts)
    W = np.outer(wts, wts)
    return float(np.sum(W * fn(X, Y)))


# ------------------------------------------------------------------ mesh

def test_mesh_level0_counts():
    mesh = build_mesh(0)
    assert mesh.n_cells == 1
    assert mesh.n_nodes == 4
    assert mesh.boundary_mask.all()


def test_mesh_level2_counts():
    mesh = build_mesh(2)
    assert mesh.n_cells == 16
    assert mesh.n_nodes == 25
    assert mesh.interior_mask.sum() == 9


def test_mesh_level5_counts():
    mesh = build_mesh(5)
    assert mesh.n_cells == 1024
    assert mesh.n_nodes == 1089
    assert mesh.h == 0.0625


def test_mesh_exact_width():
    for level in (0, 1, 3, 6):
        mesh = build_mesh(level)
        assert mesh.h * mesh.cells_per_side == 2.0


def test_mesh_boundary_nodes_touch_boundary():
    mesh = build_mesh(3)
    onb = np.abs(mesh.nodes[mesh.boundary_mask]).max(axis=1)
    assert np.all(onb == 1.0)
    inb = np.abs(mesh.nodes[mesh.interior_mask]).max(axis=1)
    assert np.all(inb < 1.0)


def test_mesh_capacity_guard():
    with pytest.raises(CapacityError):
        build_mesh(13)
    with pytest.raises(ValueError):
        build_mesh(-1)


def test_mesh_cell_connectivity_counterclockwise():
    mesh = build_mesh(1)
    quad = mesh.nodes[mesh.cells[0]]
    # shoelace area of the first cell equals h^2 with positive orientation
    x, y = quad[:, 0], quad[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area == pytest.approx(mesh.h ** 2, rel=1e-14)


# ------------------------------------------------------------- stiffness

def test_stiffness_constant_kernel():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = mesh.csr(assemble_stiffness(mesh, q).data)
    rowsums = np.asarray(K.sum(axis=1)).ravel()
    assert np.abs(rowsums).max() <= 1e-13


def test_stiffness_linear_in_q():
    mesh = build_mesh(2)
    q1 = MatrixControlField.constant(mesh, np.eye(2))
    q2 = MatrixControlField.constant(mesh, 2.0 * np.eye(2))
    k1 = mesh.csr(assemble_stiffness(mesh, q1).data)
    k2 = mesh.csr(assemble_stiffness(mesh, q2).data)
    assert np.array_equal(k2.toarray(), 2.0 * k1.toarray())


def test_stiffness_symmetric():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    K = dense(assemble_stiffness(mesh, q))
    assert np.abs(K - K.T).max() <= 1e-12 * np.abs(K).max()


def test_stiffness_energy_matches_quadrature_oracle():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED + 1)
    q = MatrixControlField.from_function(mesh, q_d_components)
    vals = np.where(mesh.interior_mask, rng.standard_normal(mesh.n_nodes), 0.0)
    v = ScalarField(mesh, vals)
    K = assemble_stiffness(mesh, q)
    energy = v.values @ (K @ v.values)
    oracle = energy_quadrature_oracle(mesh, q, v, order=4)
    assert energy == pytest.approx(oracle, rel=1e-10)


def test_stiffness_dirichlet_rows_identity():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = dense(assemble_stiffness(mesh, q))
    for i in np.nonzero(mesh.boundary_mask)[0]:
        row = np.zeros(mesh.n_nodes)
        row[i] = 1.0
        assert np.array_equal(K[i], row)
        assert np.array_equal(K[:, i], row)


def test_stiffness_rejects_indefinite_coefficient():
    mesh = build_mesh(2)
    comps = np.tile([1.0, 1.0, 0.0], (mesh.n_nodes, 1))
    comps[12] = [1.0, 1.0, 5.0]  # det < 0 at one interior node
    q = MatrixControlField(mesh, comps)
    with pytest.raises(CoefficientError, match="node 12"):
        q.stiffness


def test_stiffness_checks_definiteness_at_the_nodes():
    """q12 = 1.2 at one interior node makes det = 1 - 1.44 < 0 there, but
    at every Gauss point q12 is at most 1.2 * (2 + sqrt 3) / 6 < 0.75,
    so det > 0: a Gauss-point test passes the field, the nodal one
    refuses it."""
    mesh = build_mesh(2)
    comps = np.tile([1.0, 1.0, 0.0], (mesh.n_nodes, 1))
    comps[12, 2] = 1.2
    q = MatrixControlField(mesh, comps)
    qg = mesh.at_quadrature(q.comps)
    assert (qg[..., 0] * qg[..., 1] - qg[..., 2] ** 2 > 0.0).all()
    with pytest.raises(CoefficientError, match="node 12"):
        q.stiffness


def test_raw_stiffness_of_indefinite_direction():
    """A control direction may be indefinite: assemble_stiffness builds
    its system on the stencil unchecked, while as a control's state
    operator it is refused."""
    mesh = build_mesh(3)
    d = random_direction(mesh, np.random.default_rng(SEED + 3))
    raw = mesh.csr(assemble_stiffness(mesh, d).data)
    assert np.shares_memory(raw.indices, mesh.indices)
    assert abs(raw - raw.T).max() <= 1e-15 * abs(raw).max()
    with pytest.raises(CoefficientError, match="node"):
        d.stiffness


def test_stiffness_spectral_sandwich():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED + 2)
    q_min, q_max = 0.5, 10.0
    k_i = assemble_stiffness(
        mesh, MatrixControlField.constant(mesh, np.eye(2)))
    for _ in range(5):
        q = random_admissible(mesh, rng, q_min, q_max)
        k_q = assemble_stiffness(mesh, q)
        vals = np.where(mesh.interior_mask,
                        rng.standard_normal(mesh.n_nodes), 0.0)
        e_i = vals @ (k_i @ vals)
        e_q = vals @ (k_q @ vals)
        assert q_min * e_i <= e_q * (1 + 1e-12)
        assert e_q <= q_max * e_i * (1 + 1e-12)


def test_assembly_deterministic():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED + 3)
    q = random_admissible(mesh, rng)
    k1 = assemble_stiffness(mesh, q)
    k2 = assemble_stiffness(mesh, q)
    assert np.array_equal(k1.data, k2.data)
    assert np.array_equal(k1.dirichlet_mask, k2.dirichlet_mask)


# ------------------------------------------------------------------ mass

def test_mass_total_is_domain_area():
    mesh = build_mesh(1)
    assert mesh.mass_matrix.sum() == pytest.approx(4.0, abs=1e-12)


def test_lumped_mass_total_is_domain_area():
    """The lumped mass has the bits of the mass matrix's row sums, without
    keeping the matrix on the mesh."""
    mesh = build_mesh(2)
    m = mesh.lumped_mass
    assert "mass_matrix" not in vars(mesh)
    assert m.sum() == pytest.approx(4.0, abs=1e-12)
    assert np.all(m > 0.0)
    assert np.array_equal(m, np.asarray(mesh.mass_matrix.sum(axis=1)).ravel())


def test_constant_function_norm():
    mesh = build_mesh(3)
    one = ScalarField(mesh, np.ones(mesh.n_nodes))
    assert l2_norm(one) == pytest.approx(2.0, abs=1e-12)


# ------------------------------------------------------------------ load

def test_load_zero_function():
    mesh = build_mesh(2)
    b = assemble_load(mesh, lambda x, y: np.zeros_like(x))
    assert np.array_equal(b.values, np.zeros(mesh.n_nodes))


def test_load_partition_of_unity():
    mesh = build_mesh(3)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x))
    assert b.values.sum() == pytest.approx(4.0, abs=1e-12)


def test_load_vector_matches_integral_oracle():
    mesh = build_mesh(5)
    b = assemble_load(mesh, manufactured_load)
    oracle = domain_integral_oracle(manufactured_load, order=6)
    assert b.values.sum() == pytest.approx(oracle, abs=1e-8)
    assert oracle == pytest.approx(16.0, abs=1e-12)


# ----------------------------------------------------------------- norms

def test_norm_homogeneity():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED + 4)
    v = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    assert l2_norm(2.0 * v) == pytest.approx(2.0 * l2_norm(v), rel=1e-12)


def test_desired_state_interpolant_norm():
    mesh = build_mesh(6)
    v = interpolate(mesh, desired_state)
    assert l2_norm(v) == pytest.approx(16.0 / 15.0, abs=1e-3)


def test_desired_state_norm_symbolic_oracle():
    x, y = sympy.symbols("x y")
    u = (1 - x ** 2) * (1 - y ** 2)
    norm2 = sympy.integrate(sympy.integrate(u ** 2, (x, -1, 1)), (y, -1, 1))
    assert norm2 == sympy.Rational(256, 225)
    assert sympy.sqrt(norm2) == sympy.Rational(16, 15)


def test_manufactured_identity_symbolic():
    x, y = sympy.symbols("x y")
    u = (1 - x ** 2) * (1 - y ** 2)
    f = (1 - y ** 2) * (6 * x ** 2 + 2) + 2 * (1 - x ** 2)
    flux_x = (1 + x ** 2) * sympy.diff(u, x)
    flux_y = 1 * sympy.diff(u, y)
    residual = -(sympy.diff(flux_x, x) + sympy.diff(flux_y, y)) - f
    assert sympy.simplify(residual) == 0


def test_interpolate_matches_nodal_values():
    mesh = build_mesh(3)
    v = interpolate(mesh, desired_state)
    expected = desired_state(mesh.nodes[:, 0], mesh.nodes[:, 1])
    assert np.array_equal(v.values, expected)


def test_l2_error_exact_for_bilinear_function():
    mesh = build_mesh(3)
    fn = lambda x, y: 1.0 + 2.0 * x - y + 0.5 * x * y
    v = interpolate(mesh, fn)
    assert l2_error_vs_function(v, fn) <= 1e-14


def test_l2_error_matches_quadrature_oracle():
    mesh = build_mesh(3)
    v = interpolate(mesh, lambda x, y: np.sin(3.0 * x) * np.cos(2.0 * y))
    want = l2_error_quadrature_oracle(v, desired_state)
    assert abs(l2_error_vs_function(v, desired_state) / want - 1.0) <= 1e-13


def test_l2_error_interpolant_second_order():
    errs = []
    for level in (3, 4):
        mesh = build_mesh(level)
        v = interpolate(mesh, desired_state)
        errs.append(l2_error_vs_function(v, desired_state))
    rate = np.log2(errs[0] / errs[1])
    assert rate >= 1.9


def bilinear(x, y):
    return 1.0 + 2.0 * x - y + 0.5 * x * y


@pytest.mark.parametrize("level", [1, 2, 4])
def test_prolongation_reproduces_bilinear_functions(level):
    """P maps the interpolant of a bilinear function one level down to
    its interpolant on the fine mesh, as the reference kron(P1, P1) does."""
    mesh = build_mesh(level)
    coarse = interpolate(mesh.coarse, bilinear).values
    fine = interpolate(mesh, bilinear).values
    assert np.abs(mesh.prolong(coarse) - fine).max() <= 1e-15
    assert np.abs(kron_prolongation(level) @ coarse - fine).max() <= 1e-15


def test_restricted_load_is_the_coarse_load():
    """2x2 Gauss integrates a bilinear density times a basis function
    exactly, so P' maps the fine load to the coarse one."""
    mesh = build_mesh(4)
    fine = assemble_load(mesh, bilinear).values
    coarse = assemble_load(mesh.coarse, bilinear).values
    assert np.abs(mesh.restrict(fine) - coarse).max() <= 1e-15


def test_coarse_mesh_is_built_once():
    """Each mesh builds the mesh one level down once; the multigrid
    hierarchy descends that chain."""
    mesh = build_mesh(3)
    assert mesh.coarse is mesh.coarse
    assert mesh.coarse.level == 2
    assert np.array_equal(
        mesh.coarse.nodes,
        mesh.nodes.reshape(9, 9, 2)[::2, ::2].reshape(-1, 2))


@pytest.mark.parametrize("level", [1, 2, 5, 8])
def test_transfers_equal_the_kron_oracle_on_integers(level):
    """On integer-valued vectors every product and sum of the transfers
    is exact, so the separable prolongation and restriction have the bits
    of the kron(P1, P1) oracle's products, unmasked and with the V-cycle's
    masks: restriction D_c P' D_f r and prolongation D_f P e."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 19 + level)
    p = kron_prolongation(level)
    e = rng.integers(-50, 50, mesh.coarse.n_nodes).astype(float)
    r = rng.integers(-50, 50, mesh.n_nodes).astype(float)
    assert np.array_equal(mesh.prolong(e), p @ e)
    assert np.array_equal(mesh.restrict(r), p.T @ r)
    pinned = rng.random(mesh.n_nodes) < 0.3
    pm, coarse = masked_prolongation(level, pinned)
    assert np.array_equal(
        np.where(coarse, 0.0, mesh.restrict(np.where(pinned, 0.0, r))),
        pm.T @ r)
    assert np.array_equal(
        np.where(pinned, 0.0, mesh.prolong(np.where(coarse, 0.0, e))),
        pm @ e)


def test_stiffness_rejects_non_finite_coefficient():
    """The coefficient field itself refuses NaN and inf, so no stiffness
    is assembled from one, by q.stiffness or not."""
    mesh = build_mesh(4)
    comps = np.tile([1.0, 1.0, 0.0], (mesh.n_nodes, 1))
    for bad in (np.nan, np.inf):
        comps[40, 2] = bad
        with pytest.raises(CoefficientError, match="non-finite.*node 40"):
            assemble_stiffness(mesh, MatrixControlField(mesh, comps))
        with pytest.raises(CoefficientError, match="non-finite"):
            MatrixControlField(mesh, comps).stiffness


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_scalar_field_rejects_non_finite_values(bad):
    mesh = build_mesh(3)
    values = np.ones(mesh.n_nodes)
    values[17] = bad
    with pytest.raises(NonFiniteError, match="node 17"):
        ScalarField(mesh, values)
    with pytest.raises(NonFiniteError):
        interpolate(mesh, lambda x, y: np.where(x > 0.9, bad, 1.0))


# ------------------------------------------- stencil pattern assembly

def coo_reference(mesh, local):
    """Per-cell 4x4 matrices scattered through COO, duplicates summed."""
    c = mesh.n_cells
    local = np.broadcast_to(local, (c, 4, 4))
    rows = np.broadcast_to(mesh.cells[:, :, None], (c, 4, 4)).ravel()
    cols = np.broadcast_to(mesh.cells[:, None, :], (c, 4, 4)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)),
                         shape=(mesh.n_nodes, mesh.n_nodes)).toarray()


def pin_reference(matrix, mask):
    keep = sp.diags((~mask).astype(float))
    return (keep @ matrix @ keep + sp.diags(mask.astype(float))).toarray()


def dense(system):
    """The dense matrix of a grid system, column by column from its
    products with the unit vectors."""
    return np.column_stack([system @ e for e in np.eye(system.mesh.n_nodes)])


def assert_close_relative(got, want, rel=1e-14):
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


@pytest.mark.parametrize("level", [0, 1, 3, 5])
def test_stiffness_matches_coo_reference(level):
    mesh = build_mesh(level)
    q = random_admissible(mesh, np.random.default_rng(SEED + level))
    shape, grads, scale = mesh._reference
    qg = np.einsum("ga,cak->cgk", shape, q.comps[mesh.cells])
    qmat = np.stack([np.stack([qg[..., 0], qg[..., 2]], -1),
                     np.stack([qg[..., 2], qg[..., 1]], -1)], -2)
    local = scale * np.einsum("gad,cgde,gbe->cab", grads, qmat, grads)
    want = coo_reference(mesh, local)
    pinned = assemble_stiffness(mesh, q)
    raw = mesh.csr(pinned.data)
    assert_close_relative(raw.toarray(), want)
    assert_close_relative(
        dense(pinned),
        pin_reference(sp.csr_matrix(want), mesh.boundary_mask))


@pytest.mark.parametrize("level", [0, 2, 5])
def test_constant_operators_match_coo_reference(level):
    mesh = build_mesh(level)
    shape, grads, scale = mesh._reference
    assert_close_relative(mesh.mass_matrix.toarray(),
                          coo_reference(mesh, scale * shape.T @ shape))
    unit = MatrixControlField.constant(mesh, np.eye(2))
    assert_close_relative(
        mesh.csr(assemble_stiffness(mesh, unit).data).toarray(),
        coo_reference(mesh,
                      scale * np.einsum("gad,gbd->ab", grads, grads)))


def test_penalty_jacobian_matches_coo_reference():
    from obstacle_control.penalty import _penalty_jacobian
    mesh = build_mesh(4)
    rng = np.random.default_rng(SEED + 5)
    gap = np.maximum(rng.standard_normal((mesh.n_cells, 4)), 0.0)
    shape, _, scale = mesh._reference
    w = scale * 3.0 * 1e6 * gap ** 2
    local = np.einsum("cg,ga,gb->cab", w, shape, shape)
    cells = np.arange(mesh.n_cells)
    got = mesh.csr(_penalty_jacobian(mesh, cells, gap, 1e6))
    assert_close_relative(got.toarray(), coo_reference(mesh, local))


def test_quadrature_primitives_repeat_the_arithmetic_they_replace():
    """Gauss-point gradients, the weighted mass and the integral of a
    density give the bits of the inline code their callers had."""
    mesh = build_mesh(4)
    rng = np.random.default_rng(SEED + 6)
    shape, grads, scale = mesh._reference
    vals = rng.standard_normal(mesh.n_nodes)
    assert np.array_equal(mesh.gradients_at_quadrature(vals),
                          np.tensordot(vals[mesh.cells], grads,
                                       axes=(1, 1)))
    gap = np.maximum(rng.standard_normal((mesh.n_cells, 4)), 0.0)
    gamma = 1.7e6
    w = scale * 3.0 * gamma * gap ** 2
    local = (w @ fem._outer(shape, shape)).reshape(mesh.n_cells, 4, 4)
    assert np.array_equal(
        mesh.mass_data(3.0 * gamma * gap ** 2, np.arange(mesh.n_cells)),
        mesh.assemble(local))
    logs = np.log1p(gap)
    assert -mesh.integral(logs) == -scale * float(np.sum(logs))


@pytest.mark.parametrize("level", [0, 1, 2, 3, 4, 5, 6, 8])
def test_assemble_equals_the_slice_add_reference(level):
    """The bincount scatter of `assemble` sums each stencil entry's cell
    contributions in the order of the slice-adds, bit for bit: for
    per-cell and constant locals, and on cell subsets against a local
    that is zero off the subset."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + level)
    local = rng.standard_normal((mesh.n_cells, 4, 4))
    assert np.array_equal(mesh.assemble(local),
                          slice_add_assemble(mesh, local))
    constant = rng.standard_normal((4, 4))
    assert np.array_equal(mesh.assemble(constant),
                          slice_add_assemble(mesh, constant))
    for cells in (np.arange(0), np.array([mesh.n_cells - 1]),
                  np.sort(rng.choice(mesh.n_cells, mesh.n_cells * 6 // 100,
                                     replace=False)),
                  np.sort(rng.choice(mesh.n_cells, mesh.n_cells * 3 // 10,
                                     replace=False)),
                  np.arange(mesh.n_cells)):
        padded = np.zeros_like(local)
        padded[cells] = local[cells]
        assert np.array_equal(mesh.assemble(local[cells], cells),
                              slice_add_assemble(mesh, padded))


@pytest.mark.parametrize("columns", [(), (3,)])
@pytest.mark.parametrize("level", [1, 4, 6])
def test_integrate_equals_the_slice_add_reference(level, columns):
    """The bincount scatter of `integrate` sums each node's cell
    contributions in the order of the corner slice-adds, bit for bit."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + level)
    density = rng.standard_normal((mesh.n_cells, 4) + columns)
    assert np.array_equal(mesh.integrate(density),
                          slice_add_integrate(mesh, density))


def test_operators_share_the_mesh_pattern():
    """Assembled operators hold their data on the mesh's read-only
    pattern, and the systems derived from one keep its mesh; a system's
    matrix view shares its data and the pattern."""
    mesh = build_mesh(3)
    q = random_admissible(mesh, np.random.default_rng(SEED + 6))
    for mat in (mesh.mass_matrix,
                mesh.csr(assemble_stiffness(mesh, q).data)):
        assert mat.has_sorted_indices
        assert np.shares_memory(mat.indices, mesh.indices)
    K = assemble_stiffness(mesh, q)
    assert K.mesh is mesh
    assert K.data.shape == (mesh.nnz,)
    assert np.array_equal(
        dense(K), pin_reference(mesh.csr(K.data), mesh.boundary_mask))
    for system in (K, K.pin(mesh.nodes[:, 0] > 0.0),
                   K.plus(mesh.mass_matrix.data)):
        assert system.mesh is mesh
        assert np.shares_memory(system._csr.data, system.data)
        assert np.shares_memory(system._csr.indices, mesh.indices)
    with pytest.raises(ValueError):
        mesh.mass_matrix.indices[0] = 1


@pytest.mark.parametrize("level", [1, 3])
def test_pin_matches_keep_product(level):
    """The matrix of a system pinned on any mask is keep @ A @ keep +
    diag(mask), in the reference pinned matrix and in the system's own
    products, which have the bits of the compacted reference's."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 7)
    q = random_admissible(mesh, rng)
    raw = mesh.csr(assemble_stiffness(mesh, q).data)
    for _ in range(3):
        mask = rng.random(mesh.n_nodes) < 0.3
        system = fem.GridSystem(mesh, raw.data, mask)
        want = pin_reference(raw, mask)
        assert np.array_equal(pinned_matrix(system).toarray(), want)
        assert np.array_equal(dense(system), want)
        v = rng.standard_normal(mesh.n_nodes)
        compact = compacted_pin(mesh, raw.data, mask)
        assert np.array_equal(system @ v, compact @ v)


def test_grid_system_products_equal_the_pinned_matrix():
    """K @ v of a control's stiffness, a system pinned on more nodes, a
    summed system and the system of a sign-indefinite direction has the
    bits of the reference pinned matrix's product, for v nonzero on the
    pinned nodes."""
    mesh = build_mesh(4)
    rng = np.random.default_rng(SEED + 16)
    K = random_admissible(mesh, rng).stiffness
    weight = rng.random((mesh.n_cells, 4))
    for system in (K, K.pin(rng.random(mesh.n_nodes) < 0.3),
                   K.plus(mesh.mass_data(weight, np.arange(mesh.n_cells))),
                   assemble_stiffness(mesh, random_direction(mesh, rng))):
        v = rng.standard_normal(mesh.n_nodes)
        assert np.all(v[system.dirichlet_mask] != 0.0)
        assert np.array_equal(system @ v, pinned_matrix(system) @ v)


def test_pinned_product_copies_no_stencil_data():
    """The first product of a newly pinned level-6 system allocates less
    than one array of mesh.nnz floats: the pin is a mask on the shared
    data, not a copy of it."""
    mesh = build_mesh(6)
    rng = np.random.default_rng(SEED + 17)
    system = random_admissible(mesh, rng).stiffness.pin(
        rng.random(mesh.n_nodes) < 0.3)
    v = rng.standard_normal(mesh.n_nodes)
    tracemalloc.start()
    try:
        system @ v
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * mesh.nnz


def assert_band_matches_scatter(grid, pinned, reference):
    """The band read off the masked slot grid of a nine-point matrix,
    pinned on its mask, and its banded Cholesky factor, are bitwise those
    of the coordinate scatter of the reference matrix."""
    band = fem._band(grid, pinned)
    want = scatter_band(reference, grid.shape[-1] + 1)
    assert np.array_equal(band, want)
    assert np.array_equal(cholesky_banded(band, check_finite=False),
                          cholesky_banded(want, check_finite=False))


@pytest.mark.parametrize("level", range(0, 6))
def test_stencil_band_matches_coordinate_scatter(level):
    """The band of an unpinned (singular, so not factored) stiffness
    matrix, where at level 0 two stencil slots share a diagonal, and the
    band and factor of three random pins."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 9 + level)
    K = assemble_stiffness(mesh, random_admissible(mesh, rng))
    raw = mesh.csr(K.data)
    free = np.zeros(mesh.n_nodes, dtype=bool)
    assert np.array_equal(fem._band(fem._slot_grid(mesh, K.data, free), free),
                          scatter_band(raw, mesh.cells_per_side + 2))
    for _ in range(3):
        mask = K.pin(rng.random(mesh.n_nodes) < 0.3).dirichlet_mask
        assert_band_matches_scatter(fem._slot_grid(mesh, K.data, mask), mask,
                                    compacted_pin(mesh, K.data, mask))


def test_slot_grid_is_the_masked_coordinate_scatter():
    """The slot grid of stencil data holds D A D, the data with the rows
    and columns of the pinned nodes zeroed, slot by slot."""
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED + 20)
    data = rng.standard_normal(mesh.nnz)
    mask = rng.random(mesh.n_nodes) < 0.3
    cut = mask[entry_rows(mesh)] | mask[mesh.indices]
    want = stencil_slots(mesh.csr(np.where(cut, 0.0, data)), 9)
    assert np.array_equal(fem._slot_grid(mesh, data, mask), want)


def coarse_operators(system, monkeypatch):
    """The masked coarse slot grids of a system's multigrid set-up, finest
    first, recorded as the hierarchy forms them."""
    grids = []
    galerkin = fem._galerkin

    def recorded(grid, pinned):
        grids.append((galerkin(grid, pinned), pinned))
        return grids[-1][0]

    monkeypatch.setattr(fem, "_galerkin", recorded)
    system.multigrid
    monkeypatch.undo()
    return grids


def reference_operators(system):
    """The coarse operators of the sparse-product oracle, D_c P' A P D_c
    from the data with the pinned rows and columns zeroed, as slot grids,
    finest first."""
    mesh, pinned = system.mesh, system.dirichlet_mask
    cut = pinned[entry_rows(mesh)] | pinned[mesh.indices]
    mat = mesh.csr(np.where(cut, 0.0, system.data))
    grids = []
    for level in range(mesh.level, COARSEST_LEVEL, -1):
        p, pinned = masked_prolongation(level, pinned)
        mat = (p.T.tocsr() @ (mat @ p)).tocsr()
        grids.append(stencil_slots(mat, 2 ** (level - 1) + 1))
    return grids


def contact_disc(mesh):
    x, y = mesh.nodes.T
    return (x - 0.4) ** 2 + y ** 2 < 0.1


@pytest.mark.parametrize("level", [6, 7, 8])
def test_galerkin_operator_equals_the_oracle_on_integers(level, monkeypatch):
    """On integer-valued stencil data every product and sum of P'AP is
    exact, so each coarse operator of the stencil set-up, on random pin
    masks and on a contact disc, has the bits of the sparse-product
    oracle's."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 21 + level)
    # symmetric and diagonally dominant, so the coarsest factor exists
    local = rng.integers(-2, 3, (mesh.n_cells, 4, 4))
    local = (local + local.transpose(0, 2, 1)).astype(float)
    local[:, range(4), range(4)] = 20.0
    data = mesh.assemble(local)
    for mask in (rng.random(mesh.n_nodes) < 0.3,
                 rng.random(mesh.n_nodes) < 0.05, contact_disc(mesh)):
        system = fem.GridSystem(mesh, data, mesh.boundary_mask | mask)
        got = coarse_operators(system, monkeypatch)
        want = reference_operators(system)
        assert len(got) == len(want) == level - COARSEST_LEVEL
        for (grid, _), ref in zip(got, want):
            assert np.array_equal(grid, ref)


# relative tolerance, against the largest entry, of the stencil Galerkin
# operators on float data: the sums run in another order than the sparse
# products'
GALERKIN_RTOL = 1e-14


@pytest.mark.parametrize("kind", ["admissible", "anisotropic", "penalized"])
@pytest.mark.parametrize("level", [6, 8])
def test_galerkin_operator_matches_the_oracle(level, kind, monkeypatch):
    """Each coarse operator of a random admissible, an anisotropic (the
    l1 cap binds) and a penalized K.plus(D) system, pinned on a contact
    disc, matches the sparse-product oracle within GALERKIN_RTOL."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 22)
    q = (MatrixControlField.constant(mesh, [[4.0, 1.5], [1.5, 1.0]])
         if kind == "anisotropic" else random_admissible(mesh, rng))
    system = q.stiffness.pin(contact_disc(mesh))
    if kind == "penalized":
        weight = 1e6 * rng.random((mesh.n_cells, 4))
        system = system.plus(mesh.mass_data(weight, np.arange(mesh.n_cells)))
    for (grid, _), ref in zip(coarse_operators(system, monkeypatch),
                              reference_operators(system)):
        assert np.abs(grid - ref).max() <= GALERKIN_RTOL * np.abs(ref).max()


def reference_vcycle(system, r):
    """The V-cycle of the reference pinned matrix's hierarchy applied to
    r, its coarsest band scattered from the Galerkin operator."""
    grids, coarsest = reference_hierarchy(
        pinned_matrix(system), system.dirichlet_mask, system.mesh.level)
    n1 = 2 ** min(system.mesh.level, COARSEST_LEVEL) + 1
    factor = cholesky_banded(scatter_band(coarsest, n1 + 1),
                             check_finite=False)
    down = []
    for a, s, p in grids:
        x = s * r
        x += s * (r - a @ x)
        down.append((x, r))
        r = p.T @ (r - a @ x)
    e = cho_solve_banded((factor, False), r, check_finite=False)
    for (a, s, p), (x, r) in zip(reversed(grids), reversed(down)):
        x += p @ e
        x += s * (r - a @ x)
        x += s * (r - a @ x)
        e = x
    return e


# relative tolerance, against the largest entry, of a V-cycle set up on
# stencils against the reference hierarchy's above level 5
VCYCLE_RTOL = 1e-12


@pytest.mark.parametrize("anisotropic", [False, True])
@pytest.mark.parametrize("level", [4, 7])
def test_multigrid_equals_the_pinned_matrix_vcycle(level, anisotropic):
    """The V-cycle a pinned system sets up from its unpinned data and mask
    matches the one set up from the reference pinned matrix by sparse
    products, on residuals that vanish on the pinned nodes as CG's do:
    bitwise at level 4, a direct solve on the system's own band, and
    within VCYCLE_RTOL at level 7, where the stencil Galerkin product and
    the separable transfers sum in another order. With the anisotropic
    coefficient the l1 cap of the smoother's weights binds, so the l1
    norms must leave out the pinned columns."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 18)
    q = (MatrixControlField.constant(mesh, [[4.0, 1.5], [1.5, 1.0]])
         if anisotropic else random_admissible(mesh, rng))
    system = q.stiffness.pin(contact_disc(mesh))
    for _ in range(2):
        r = np.where(system.dirichlet_mask, 0.0,
                     rng.standard_normal(mesh.n_nodes))
        got, want = system.multigrid(r), reference_vcycle(system, r)
        if level <= COARSEST_LEVEL:
            assert np.array_equal(got, want)
        else:
            assert np.abs(got - want).max() <= \
                VCYCLE_RTOL * np.abs(want).max()


def test_galerkin_band_matches_coordinate_scatter(monkeypatch):
    """Systems at levels 6-8 pinned on a contact disc: the band read off
    each coarsest Galerkin operator, on the level-5 grid, and the band's
    factor are bitwise those of the coordinate scatter of that operator,
    and the band is within GALERKIN_RTOL of the reference hierarchy's."""
    grids = []
    band = fem._band

    def recorded(grid, pinned):
        grids.append((grid.copy(), pinned))
        return band(grid, pinned)

    monkeypatch.setattr(fem, "_band", recorded)
    for level in (6, 7, 8):
        mesh = build_mesh(level)
        K = assemble_stiffness(
            mesh, random_admissible(mesh, np.random.default_rng(SEED + 15)))
        system = K.pin(contact_disc(mesh))
        grids.clear()
        assert system.multigrid is system.multigrid
        (grid, pinned), = grids
        coarsest = build_mesh(COARSEST_LEVEL)
        assert grid.shape == (3, 3, 33, 33)
        own = coarsest.csr(grid.reshape(9, -1).T[coarsest.valid.reshape(-1, 9)]
                           ) + sp.diags(pinned.astype(float))
        assert_band_matches_scatter(grid, pinned, own)
        reference = scatter_band(galerkin_reference(system), 34)
        assert np.abs(band(grid, pinned) - reference).max() <= \
            GALERKIN_RTOL * np.abs(reference).max()


def test_set_up_keeps_less_than_the_sparse_product_hierarchy():
    """A level-8 set-up on warm coarse meshes keeps less than 3 MB and
    peaks below 12 MB of allocations (the sparse-product hierarchy kept
    5.8 MB and peaked at 15.5 MB on the same system): the temporary slot
    grids are dropped level by level."""
    mesh = build_mesh(8)
    K = MatrixControlField.constant(mesh, np.eye(2)).stiffness.pin(
        contact_disc(mesh))
    K.multigrid
    system = fem.GridSystem(mesh, K.data, K.dirichlet_mask)
    tracemalloc.start()
    try:
        vcycle = system.multigrid
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert callable(vcycle)
    assert kept < 3e6
    assert peak < 12e6


@pytest.mark.parametrize("level", [1, 3])
def test_derived_systems_keep_the_pinned_nodes(level):
    """pin adds nodes to the source's mask on the same data; plus adds
    data on the same mask; neither unpins a node of its source."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(SEED + 8)
    K = assemble_stiffness(mesh, random_admissible(mesh, rng))
    raw = mesh.csr(K.data)
    extra = rng.random(mesh.n_nodes) < 0.3
    pinned = K.pin(extra)
    assert pinned.data is K.data
    assert np.array_equal(pinned.dirichlet_mask,
                          mesh.boundary_mask | extra)
    assert np.array_equal(dense(pinned),
                          pin_reference(raw, mesh.boundary_mask | extra))
    mass = mesh.mass_matrix
    summed = pinned.plus(mass.data)
    assert summed.dirichlet_mask is pinned.dirichlet_mask
    assert np.array_equal(summed.data, K.data + mass.data)
    assert np.array_equal(
        dense(summed),
        pin_reference(raw + mass, mesh.boundary_mask | extra))
    assert np.array_equal(K.dirichlet_mask, mesh.boundary_mask)


@pytest.mark.parametrize("level", [1, 4, 7])
def test_mass_is_kronecker_of_1d_masses(level):
    mesh = build_mesh(level)
    n1 = mesh.cells_per_side + 1
    h = mesh.h
    m1 = sp.diags([h / 6.0, 4.0 * h / 6.0, h / 6.0], [-1, 0, 1],
                  shape=(n1, n1)).tolil()
    m1[0, 0] = m1[-1, -1] = h / 3.0
    diff = abs(sp.kron(m1, m1) - mesh.mass_matrix).max()
    assert diff <= 1e-15 * abs(mesh.mass_matrix).max()
