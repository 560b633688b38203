"""Linear solver contract tests against a dense factorization oracle."""

import numpy as np
import pytest
import scipy.sparse as sp

from obstacle_control import (
    MatrixControlField,
    ScalarField,
    SolverError,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    solve_spd,
)
from obstacle_control.control import riesz_lift

SEED = 5150


def test_identity_system():
    rng = np.random.default_rng(SEED)
    b = rng.standard_normal(12)
    x, report = solve_spd(sp.eye(12, format="csr"), b, tol=1e-12)
    assert np.allclose(x, b, atol=1e-13)
    assert report.residual_norm <= 1e-12 * np.linalg.norm(b)


def test_residual_contract_on_stiffness():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x))
    x, report = solve_spd(K, b, tol=1e-10)
    rhs = np.where(mesh.boundary_mask, 0.0, b.values)
    res = np.linalg.norm(K @ x.values - rhs)
    assert res <= 1e-10 * np.linalg.norm(rhs)
    assert isinstance(x, ScalarField)


def test_matches_dense_factorization_oracle():
    rng = np.random.default_rng(SEED + 1)
    r = rng.standard_normal((5, 5))
    a = r.T @ r + np.eye(5)
    b = rng.standard_normal(5)
    expected = np.linalg.solve(a, b)
    x, _ = solve_spd(a, b, tol=1e-14)
    assert np.allclose(x, expected, atol=1e-10)


def test_deterministic_solves():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: x + y ** 2)
    x1, _ = solve_spd(K, b)
    x2, _ = solve_spd(K, b)
    assert np.array_equal(x1.values, x2.values)


def test_energy_monotonicity():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.cos(x) * y)
    exact, _ = solve_spd(K, b, tol=1e-14)
    iterates = []
    solve_spd(K, b, tol=1e-12, callback=iterates.append)
    energies = []
    for x in iterates:
        e = x - exact.values
        energies.append(e @ (K @ e))
    diffs = np.diff(energies)
    assert np.all(diffs <= 1e-14 + 1e-12 * np.abs(energies[:-1]))


def test_zero_rhs():
    x, report = solve_spd(np.eye(4), np.zeros(4))
    assert np.array_equal(x, np.zeros(4))
    assert report.iterations == 0


def test_boundary_values_zeroed():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    rng = np.random.default_rng(SEED + 2)
    b = ScalarField(mesh, rng.standard_normal(mesh.n_nodes))
    x, _ = solve_spd(K, b)
    assert np.array_equal(x.values[mesh.boundary_mask],
                          np.zeros(mesh.boundary_mask.sum()))


def test_nonconvergence_raises_with_report():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x))
    with pytest.raises(SolverError) as err:
        solve_spd(K, b, tol=1e-12, max_iters=2)
    assert err.value.report is not None
    assert err.value.report.iterations == 2


def test_direct_path_matches_pcg():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: x * y + 2.0)
    x_it, _ = solve_spd(K, b, tol=1e-13)
    x_dir, report = solve_spd(K, b, method="direct")
    assert report.method == "direct"
    assert np.allclose(x_it.values, x_dir.values, atol=1e-10)


# ------------------------------------------------- non-finite input

@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_rhs_fails_before_iterating(bad):
    mesh = build_mesh(6)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x)).values.copy()
    b[mesh.n_nodes // 2] = bad
    iterates = []
    with pytest.raises(SolverError, match="right-hand side"):
        solve_spd(K, b, callback=iterates.append)
    assert iterates == []
    with pytest.raises(SolverError, match="right-hand side"):
        solve_spd(K, b, method="direct")


def test_non_finite_initial_guess_fails_before_iterating():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    b = assemble_load(mesh, lambda x, y: np.ones_like(x))
    x0 = np.zeros(mesh.n_nodes)
    x0[10] = np.nan
    iterates = []
    with pytest.raises(SolverError, match="initial guess"):
        solve_spd(K, b, x0=x0, callback=iterates.append)
    assert iterates == []


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
        solve_spd(op, b, tol=1e-13)
    monkeypatch.setattr(op, "solve", lambda rhs: 1.001 * rhs)
    with pytest.raises(SolverError, match="residual target"):
        solve_spd(op, b, tol=1e-13)


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
    x, report = solve_spd(mesh.mass_operator, b, tol=MASS_TOL)
    assert x.shape == b.shape
    assert report.method == "kronecker" and report.iterations == 0
    _assert_mass_contract(mesh, x, b)
    x_dir, report_dir = solve_spd(mesh.mass_operator, b, tol=MASS_TOL,
                                  method="direct")
    assert report_dir.method == "direct"
    _assert_mass_contract(mesh, x_dir, b)
    cols = b.reshape(mesh.n_nodes, -1).T
    x_pcg = np.column_stack([solve_spd(mesh.mass_matrix, col,
                                       tol=MASS_TOL)[0] for col in cols])
    _assert_mass_contract(mesh, x_pcg, cols.T)
    scale = np.abs(x_dir).max()
    assert np.abs(x - x_dir).max() <= 1e-12 * scale
    assert np.abs(x.reshape(x_pcg.shape) - x_pcg).max() <= 1e-11 * scale


def test_kronecker_mass_solve_of_a_field_and_zero_columns():
    mesh = build_mesh(4)
    b = ScalarField(mesh, _mass_rhs(mesh, None, SEED))
    x, _ = solve_spd(mesh.mass_operator, b, tol=MASS_TOL)
    assert isinstance(x, ScalarField)
    _assert_mass_contract(mesh, x.values, b.values)
    b3 = np.zeros((mesh.n_nodes, 3))
    b3[:, 0] = b.values
    x3, _ = solve_spd(mesh.mass_operator, b3, tol=MASS_TOL)
    assert np.array_equal(x3[:, 1:], np.zeros((mesh.n_nodes, 2)))
    assert np.array_equal(x3[:, 0], x.values)
