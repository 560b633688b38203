"""Linear solver contract tests against scipy's sparse LU and Jacobi-
preconditioned CG, and a dense factorization oracle."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from obstacle_control import (
    DimensionError,
    MatrixControlField,
    SolverError,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    initial_control,
    solve_spd,
)
from obstacle_control import linsolve
from obstacle_control.control import riesz_lift
from obstacle_control.fem import COARSEST_LEVEL, GridSystem
from obstacle_control.penalty import _contact, _penalty_jacobian

from conftest import diagonal_entries, pinned_matrix, random_admissible

SEED = 5150


def scipy_lu(matrix, rhs):
    """Reference: scipy's sparse LU solve of one or several columns."""
    return spla.splu(matrix.tocsc()).solve(rhs)


def scipy_jacobi_cg(matrix, rhs, tol):
    """Reference: scipy's CG preconditioned by the inverse diagonal, to
    its own residual ||r|| < tol * ||rhs||."""
    x, info = spla.cg(matrix, rhs, rtol=tol,
                      M=sp.diags(1.0 / matrix.diagonal()))
    assert info == 0
    return x


@pytest.fixture
def no_multigrid(monkeypatch):
    """A solve that passes its input checks sets up the multigrid, a
    cached property of the system; here that raises, so an error raised
    instead shows the input was refused before any work."""
    def refuse(self):
        raise AssertionError("multigrid built")

    monkeypatch.setattr(GridSystem, "multigrid", property(refuse))


def test_identity_system():
    mesh = build_mesh(2)
    n = mesh.n_nodes
    data = np.zeros(mesh.nnz)
    data[diagonal_entries(mesh)] = 1.0
    identity = GridSystem(mesh, data, np.zeros(n, dtype=bool))
    b = np.random.default_rng(SEED).standard_normal(n)
    x, report = solve_spd(identity, b)
    assert np.allclose(x, b, atol=1e-13)
    assert report.residual_norm <= 1e-12 * np.linalg.norm(b)


def test_residual_contract_on_stiffness():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values
    x, report = solve_spd(K, b)
    rhs = np.where(mesh.boundary_mask, 0.0, b)
    res = np.linalg.norm(K @ x - rhs)
    assert res <= 1e-12 * np.linalg.norm(rhs)
    assert isinstance(x, np.ndarray)


def test_residual_target_is_not_an_option():
    """The operator fixes the target: 1e-12 for a grid system, 1e-13 for
    the mass check."""
    mesh = build_mesh(2)
    K = assemble_stiffness(mesh, initial_control(mesh))
    b = np.ones(mesh.n_nodes)
    for op in (K, mesh.mass_operator):
        with pytest.raises(TypeError, match="tol"):
            solve_spd(op, b, tol=1e-10)


def test_matches_dense_factorization_oracle():
    """A level-2 stiffness of a random admissible coefficient against
    numpy's dense solve."""
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 1)
    K = assemble_stiffness(mesh, random_admissible(mesh, rng))
    b = rng.standard_normal(mesh.n_nodes)
    rhs = np.where(mesh.boundary_mask, 0.0, b)
    expected = np.linalg.solve(pinned_matrix(K).toarray(), rhs)
    x, _ = solve_spd(K, b)
    assert np.allclose(x, expected, atol=1e-10)


def test_deterministic_solves():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: x + y ** 2).values
    x1, _ = solve_spd(K, b)
    x2, _ = solve_spd(K, b)
    assert np.array_equal(x1, x2)


def test_zero_rhs():
    mesh = build_mesh(2)
    K = assemble_stiffness(mesh, initial_control(mesh))
    x, report = solve_spd(K, np.zeros(mesh.n_nodes))
    assert np.array_equal(x, np.zeros(mesh.n_nodes))
    assert report.iterations == 0


def test_boundary_values_zeroed():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    rng = np.random.default_rng(SEED + 2)
    b = rng.standard_normal(mesh.n_nodes)
    x, _ = solve_spd(K, b)
    assert np.array_equal(x[mesh.boundary_mask],
                          np.zeros(mesh.boundary_mask.sum()))


def test_nonconvergence_raises_with_report(monkeypatch):
    """CG stops at its cap, here lowered to 2. The level is 7: at level 3
    the multigrid is an exact solve and converges in one iteration."""
    monkeypatch.setattr(linsolve, "_CG_MAX_ITERS", 2)
    mesh = build_mesh(7)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values
    with pytest.raises(SolverError, match="in 2 iterations") as err:
        solve_spd(K, b)
    assert err.value.report is not None
    assert err.value.report.iterations == 2


def test_identity_preconditioner_hits_the_cap(monkeypatch):
    """Without its V-cycle a level-7 CG needs about 200 iterations, 20
    times the multigrid's count: the cap of 100 turns that into an error
    instead of a slow success."""
    identity = property(lambda self: lambda r: r)
    monkeypatch.setattr(GridSystem, "multigrid", identity)
    mesh = build_mesh(7)
    K = assemble_stiffness(mesh, MatrixControlField.constant(
        mesh, np.eye(2)))
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values
    with pytest.raises(SolverError, match="in 100 iterations") as err:
        solve_spd(K, b)
    assert err.value.report.iterations == 100


def test_direct_path_matches_pcg():
    """Multigrid-PCG on the stiffness against scipy's sparse LU."""
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: x * y + 2.0).values
    x_it, _ = solve_spd(K, b)
    x_dir = scipy_lu(pinned_matrix(K), np.where(mesh.boundary_mask, 0.0, b))
    assert np.allclose(x_it, x_dir, atol=1e-10)


# ------------------------------------------------- non-finite input

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_fails_before_iterating(bad, no_multigrid):
    mesh = build_mesh(6)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values.copy()
    b[mesh.n_nodes // 2] = bad
    with pytest.raises(SolverError, match="right-hand side"):
        solve_spd(K, b)


def test_non_finite_initial_guess_fails_before_iterating(no_multigrid):
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values
    x0 = np.zeros(mesh.n_nodes)
    x0[10] = np.nan
    with pytest.raises(SolverError, match="initial guess"):
        solve_spd(K, b, x0=x0)


def test_non_finite_load_on_the_mass_path_fails():
    mesh = build_mesh(3)
    dens = np.ones((mesh.n_cells, 4, 3))
    dens[5, 2, 1] = np.nan
    with pytest.raises(SolverError, match="right-hand side"):
        riesz_lift(mesh, dens)


def test_mass_residual_check_rejects_a_nan_solution(monkeypatch):
    """A solve returning NaN must fail the residual check, not pass it."""
    mesh = build_mesh(3)
    op = mesh.mass_operator
    b = np.ones(mesh.n_nodes)
    monkeypatch.setattr(op, "solve", lambda rhs: np.full(rhs.shape, np.nan))
    with pytest.raises(SolverError, match="residual target"):
        solve_spd(op, b)
    monkeypatch.setattr(op, "solve", lambda rhs: 1.001 * rhs)
    with pytest.raises(SolverError, match="residual target"):
        solve_spd(op, b)


# ------------------------------------- exact Kronecker mass solves

MASS_TOL = 1e-13


def _mass_rhs(mesh, columns, seed):
    rng = np.random.default_rng(seed)
    shape = (mesh.n_nodes,) if columns is None else (mesh.n_nodes, columns)
    return rng.standard_normal(shape)


def _assert_mass_contract(mesh, x, b):
    res = np.linalg.norm(mesh.mass_matrix @ x - b, axis=0)
    assert np.all(res <= MASS_TOL * np.linalg.norm(b, axis=0))


@pytest.mark.parametrize("level", range(1, 8))
@pytest.mark.parametrize("columns", [None, 1, 3])
def test_kronecker_mass_solve_matches_pcg_and_direct(level, columns):
    mesh = build_mesh(level)
    b = _mass_rhs(mesh, columns, SEED + level)
    x, report = solve_spd(mesh.mass_operator, b)
    assert x.shape == b.shape
    assert report.iterations == 0
    _assert_mass_contract(mesh, x, b)
    x_dir = scipy_lu(mesh.mass_matrix, b)
    _assert_mass_contract(mesh, x_dir, b)
    cols = b.reshape(mesh.n_nodes, -1).T
    x_pcg = np.column_stack([scipy_jacobi_cg(mesh.mass_matrix, col, MASS_TOL)
                             for col in cols])
    _assert_mass_contract(mesh, x_pcg, cols.T)
    scale = np.abs(x_dir).max()
    assert np.abs(x - x_dir).max() <= 1e-12 * scale
    assert np.abs(x.reshape(x_pcg.shape) - x_pcg).max() <= 1e-11 * scale


def test_kronecker_mass_solve_of_a_field_and_zero_columns():
    """The nodal values of one field solve as one column of several."""
    mesh = build_mesh(4)
    b = _mass_rhs(mesh, None, SEED)
    x, _ = solve_spd(mesh.mass_operator, b)
    assert x.shape == (mesh.n_nodes,)
    _assert_mass_contract(mesh, x, b)
    b3 = np.zeros((mesh.n_nodes, 3))
    b3[:, 0] = b
    x3, _ = solve_spd(mesh.mass_operator, b3)
    assert np.array_equal(x3[:, 1:], np.zeros((mesh.n_nodes, 2)))
    assert np.array_equal(x3[:, 0], x)


# ------------------------------------- multigrid PCG on grid systems

GRID_TOL = 1e-12
# peak of the state behind the penalty Jacobian, 1e-3 above the obstacle
# psi = 0.5: a state at gamma = 1e12 overshoots by about (f / gamma)^(1/3)
PENALTY_PEAK = 0.501


def _grid_case(kind, level, seed):
    """A grid system of one of the four kinds the solvers build, a
    right-hand side (nonzero on pinned rows too) and the pinned values the
    caller adds back."""
    mesh = build_mesh(level)
    rng = np.random.default_rng(seed)
    x, y = mesh.nodes.T
    b = rng.standard_normal(mesh.n_nodes)
    lifted = np.zeros(mesh.n_nodes)
    if kind == "dirichlet":
        q = MatrixControlField.constant(mesh, [[4.0, 1.5], [1.5, 1.0]])
        return assemble_stiffness(mesh, q), b, lifted
    K = assemble_stiffness(mesh, initial_control(mesh))
    if kind == "pdas":
        # a random active set pinned to psi, moved to the right-hand side
        # the way the active-set solver does it
        active = mesh.interior_mask & (rng.random(mesh.n_nodes) < 0.3)
        lifted = np.where(active, 0.5, 0.0)
        return K.pin(active), b - K @ lifted, lifted
    if kind == "vi_adjoint":
        contact = (x - 0.4) ** 2 + y ** 2 < 0.1
        return K.pin(contact), b, lifted
    return _penalty_system(mesh, K), b, lifted


def _penalty_system(mesh, K):
    """K + D with the gamma = 1e12 penalty Jacobian of a bump state."""
    x, y = mesh.nodes.T
    u = PENALTY_PEAK * (1.0 - x ** 2) * (1.0 - y ** 2)
    return K.plus(_penalty_jacobian(mesh, *_contact(mesh, u, 0.5), 1e12))


def _true_residual(system, x, b):
    rhs = np.where(system.dirichlet_mask, 0.0, b)
    residual = pinned_matrix(system) @ x - rhs
    return np.linalg.norm(residual) / np.linalg.norm(rhs)


@pytest.mark.parametrize("level", range(1, 9))
@pytest.mark.parametrize("kind", ["dirichlet", "pdas", "vi_adjoint",
                                  "penalty"])
def test_multigrid_matches_jacobi_and_direct(kind, level):
    system, b, lifted = _grid_case(kind, level, SEED + level)
    pinned = system.dirichlet_mask
    x0 = np.random.default_rng(SEED).standard_normal(b.shape)
    x, report = solve_spd(system, b, x0=x0)
    # pinned entries are exactly their prescribed values, whatever b and
    # x0 hold there
    assert np.array_equal(x[pinned], np.zeros(pinned.sum()))
    u = x + lifted
    assert np.array_equal(u[lifted != 0.0], lifted[lifted != 0.0])
    rhs = np.where(pinned, 0.0, b)
    # Jacobi-PCG stops on its updated residual, whose drift from the true
    # one reaches 0.2% of the target at level 8, so only the solutions
    # are compared
    matrix = pinned_matrix(system)
    x_jac = scipy_jacobi_cg(matrix, rhs, GRID_TOL)
    x_dir = scipy_lu(matrix, rhs)
    for sol in (x, x_dir):
        assert _true_residual(system, sol, b) <= GRID_TOL
    scale = np.abs(x_dir).max()
    assert np.abs(x - x_dir).max() <= 1e-7 * scale
    assert np.abs(x - x_jac).max() <= 1e-7 * scale


@pytest.mark.parametrize("level", [3, 7])
@pytest.mark.parametrize("kind", ["dirichlet", "pdas", "vi_adjoint",
                                  "penalty"])
def test_no_start_equals_a_zero_start(kind, level):
    """CG without x0 starts from the residual b, the bits of b - A 0."""
    system, b, _ = _grid_case(kind, level, SEED + level)
    x, report = solve_spd(system, b)
    x_zero, report_zero = solve_spd(system, b, x0=np.zeros(b.shape))
    assert np.array_equal(x, x_zero)
    assert report == report_zero


@pytest.mark.parametrize("kind, cap", [("unit", 12), ("penalty", 30)])
def test_multigrid_iterations_do_not_grow_with_level(kind, cap):
    for level in (6, 7, 8):
        mesh = build_mesh(level)
        K = assemble_stiffness(mesh, MatrixControlField.constant(
            mesh, np.eye(2)))
        system = _penalty_system(mesh, K) if kind == "penalty" else K
        b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values
        x, report = solve_spd(system, b)
        assert report.iterations <= cap, (level, report.iterations)
        assert _true_residual(system, x, b) <= 1e-11


@pytest.mark.parametrize("level", range(1, 6))
@pytest.mark.parametrize("kind", ["dirichlet", "pdas", "vi_adjoint",
                                  "penalty"])
def test_multigrid_is_a_direct_solve_up_to_level_5(kind, level):
    system, b, _ = _grid_case(kind, level, SEED)
    x, report = solve_spd(system, b)
    assert report.iterations <= 1
    assert _true_residual(system, x, b) <= 1e-12


def test_plain_matrix_is_not_taken_for_a_grid(no_multigrid):
    """A plain matrix raises TypeError before any work, sparse or dense,
    even a level-1 stiffness matrix that is 9x9 like the mesh, or the
    mass matrix without its solve; the stiffness as a grid system goes on
    to the multigrid."""
    mesh = build_mesh(1)
    K = assemble_stiffness(mesh, initial_control(mesh))
    b = np.where(mesh.boundary_mask, 0.0, 1.0)
    matrix = pinned_matrix(K)
    for plain in (matrix, matrix.toarray(), mesh.mass_matrix):
        with pytest.raises(TypeError, match="GridSystem or a KroneckerMass"):
            solve_spd(plain, b)
    with pytest.raises(AssertionError, match="multigrid built"):
        solve_spd(K, b)


@pytest.mark.parametrize("level", [3, 7])
def test_nan_on_the_multigrid_path_raises(level, monkeypatch):
    mesh = build_mesh(level)
    K = assemble_stiffness(mesh, initial_control(mesh))
    bump = np.zeros(K.data.size)
    off_diagonal = np.setdiff1d(np.arange(bump.size),
                                diagonal_entries(mesh))
    bump[off_diagonal[bump.size // 3]] = np.nan
    system = K.plus(bump)
    b = np.where(mesh.boundary_mask, 0.0, 1.0)
    with pytest.raises(SolverError):
        solve_spd(system, b)
    nan_cycle = property(lambda self: lambda r: np.full_like(r, np.nan))
    monkeypatch.setattr(GridSystem, "multigrid", nan_cycle)
    # refused at the curvature test of the first step, before an update
    with pytest.raises(SolverError, match="not positive definite") as err:
        solve_spd(K, b)
    assert err.value.report.iterations == 1


@pytest.mark.parametrize("level", [4, 7])
def test_failed_banded_factor_raises(level):
    """K - 10 M has a positive diagonal but is indefinite (the first
    Dirichlet eigenvalue of the square is about 4.93). The multigrid
    set-up itself reports the failed factor, as it does a nonpositive
    diagonal."""
    mesh = build_mesh(level)
    K = assemble_stiffness(mesh, MatrixControlField.constant(
        mesh, np.eye(2)))
    system = K.plus(-10.0 * mesh.mass_matrix.data)
    assert np.all(pinned_matrix(system).diagonal() > 0.0)
    with pytest.raises(SolverError, match="banded Cholesky"):
        system.multigrid
    b = np.where(mesh.boundary_mask, 0.0, 1.0)
    with pytest.raises(SolverError, match="banded Cholesky"):
        solve_spd(system, b)


@pytest.mark.parametrize("level", [4, 7])
def test_nonpositive_diagonal_raises_on_any_grid(level):
    """A free row with a zero diagonal fails the set-up on the system's
    own grid. Above level 5 so does a coarse grid whose fine diagonals
    are all positive: with cell matrices 2I - J the off-diagonal entries
    outweigh the diagonal, and the coarse diagonal (P e)'A(P e) of a
    coarse node is negative."""
    mesh = build_mesh(level)
    K = assemble_stiffness(mesh, MatrixControlField.constant(
        mesh, np.eye(2)))
    data = K.data.copy()
    data[diagonal_entries(mesh)[mesh.n_nodes // 2]] = 0.0
    with pytest.raises(SolverError, match="nonpositive diagonal"):
        GridSystem(mesh, data, K.dirichlet_mask).multigrid
    if level > COARSEST_LEVEL:
        system = GridSystem(mesh, mesh.assemble(2.0 * np.eye(4) - 1.0),
                            K.dirichlet_mask)
        assert np.all(system.data[diagonal_entries(mesh)] > 0.0)
        with pytest.raises(SolverError, match="nonpositive diagonal"):
            system.multigrid


def test_grid_system_checks_its_level():
    """A grid system refuses data that is not on its mesh's stencil and a
    mask of another length."""
    mesh = build_mesh(3)
    K = assemble_stiffness(mesh, initial_control(mesh))
    other = build_mesh(2)
    for grid, data, mask in ((other, K.data, K.dirichlet_mask),
                             (mesh, K.data[:-1], K.dirichlet_mask),
                             (mesh, K.data, K.dirichlet_mask[:-1])):
        with pytest.raises(DimensionError, match="grid system"):
            GridSystem(grid, data, mask)


def test_grid_system_refuses_a_non_boolean_mask():
    """A 0/1 integer mask would index the data by position, not flag the
    nodes: the pinned diagonal would keep its stiffness entry and nodes 0
    and 1 would get the ones. A grid system refuses it on construction,
    and so does `pin`."""
    mesh = build_mesh(3)
    K = assemble_stiffness(mesh, initial_control(mesh))
    mask = np.zeros(mesh.n_nodes, dtype=bool)
    mask[mesh.n_nodes // 2] = True
    for build in (lambda: K.pin(mask.astype(int)),
                  lambda: GridSystem(mesh, K.data, mask.astype(int)),
                  lambda: GridSystem(mesh, K.data, mask.astype(float))):
        with pytest.raises(TypeError, match="must be boolean"):
            build()


def test_pin_refuses_a_mask_of_another_length():
    """A one-entry mask would broadcast and pin every node; a mask one
    node short would fail inside numpy. Both are refused as operands of
    the wrong shape, and so is data for `plus` with one entry, which would
    broadcast onto every stencil entry, or one entry short."""
    mesh = build_mesh(3)
    K = assemble_stiffness(mesh, initial_control(mesh))
    for mask in (np.array([True]), np.zeros(mesh.n_nodes - 1, dtype=bool)):
        with pytest.raises(DimensionError, match="one entry per node"):
            K.pin(mask)
    for data in (np.ones(1), np.ones(mesh.nnz - 1)):
        with pytest.raises(DimensionError,
                           match="one entry per stencil entry"):
            K.plus(data)


def test_solves_refuse_node_arrays_of_another_length(no_multigrid):
    """A grid solve refuses a right-hand side or a start that does not
    have one entry per node before any work, and the mass solve a
    right-hand side of another length."""
    mesh = build_mesh(3)
    K = assemble_stiffness(mesh, initial_control(mesh))
    b = np.ones(mesh.n_nodes)
    for args in ((b[:-1],), (b, np.array([1.0])), (b, b[:-1])):
        with pytest.raises(DimensionError, match="one entry per node"):
            solve_spd(K, *args)
    with pytest.raises(DimensionError):
        solve_spd(mesh.mass_operator, b[:-1])
