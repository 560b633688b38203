"""Admissibility, barrier, projection, and inner-product tests."""

import numpy as np
import pytest

from obstacle_control import (
    CoefficientError,
    DimensionError,
    MatrixControlField,
    assemble_load,
    barrier,
    build_mesh,
    check_admissible,
    control_inner,
    control_norm,
    interpolate,
    project_spectral,
)
from obstacle_control import control, fem, problems
from obstacle_control.control import riesz_lift
from obstacle_control.obstacle import solve_vi
from obstacle_control.optimize import solve_vi_adjoint
from obstacle_control.penalty import PenaltyConfig, solve_adjoint, \
    solve_penalized
from obstacle_control.sensitivity import build_critical_cone, \
    derivative_complementarity_check, direction_load, directional_derivative

from conftest import random_admissible, random_direction
from test_fem import desired_state, manufactured_load

SEED = 910
Q_MIN, Q_MAX = 0.5, 10.0


def barrier_gradient(q):
    """The barrier's L2 gradient: the Riesz lift of its density."""
    density = barrier(q, Q_MIN, Q_MAX).density
    return MatrixControlField(q.mesh, riesz_lift(q.mesh, density))


def node_matrices(q):
    """Dense per-node matrices of a control field, (n_nodes, 2, 2)."""
    q11, q22, q12 = q.comps.T
    return np.stack([np.stack([q11, q12], -1), np.stack([q12, q22], -1)],
                    -2)


# --------------------------------------------------------- admissibility

@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_control_field_rejects_non_finite_components(bad):
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    comps = q.comps.copy()
    comps[7, 1] = bad
    with pytest.raises(CoefficientError, match="non-finite.*node 7"):
        MatrixControlField(mesh, comps)
    # arithmetic that overflows or meets 0 * inf fails the same way
    with np.errstate(invalid="ignore"), \
            pytest.raises(CoefficientError, match="non-finite"):
        q * bad


def test_identity_admissible():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    assert check_admissible(q, Q_MIN, Q_MAX).admissible


def test_lower_cone_boundary_not_admissible():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.diag([0.5, 1.0]))
    report = check_admissible(q, Q_MIN, Q_MAX)
    assert not report.admissible
    assert report.worst_value == 0.0


def test_initial_control_admissible():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, [[2.0, -1.0], [-1.0, 2.0]])
    assert check_admissible(q, Q_MIN, Q_MAX).admissible
    eigs = np.linalg.eigvalsh(node_matrices(q))
    assert np.allclose(eigs[:, 0], 1.0) and np.allclose(eigs[:, 1], 3.0)


def test_constant_takes_only_a_symmetric_matrix():
    """A component triple is refused: the config's (q11, q12, q22) order
    of Q_INIT read as the storage order (q11, q22, q12) would build
    q22 = -1."""
    mesh = build_mesh(1)
    for bad in (problems.Q_INIT, np.eye(3), [[1.0, 0.5], [0.0, 1.0]]):
        with pytest.raises(ValueError):
            MatrixControlField.constant(mesh, bad)


def test_negative_definite_slack_rejected_despite_positive_determinant():
    # both eigenvalues of q - q_min I negative: det > 0 but trace < 0,
    # so the trace test must reject
    mesh = build_mesh(1)
    q = MatrixControlField.constant(mesh, np.diag([0.3, 0.3]))
    assert not check_admissible(q, Q_MIN, Q_MAX).admissible


def test_eigenvalues_match_dense_oracle():
    """The closed-form eigenpair of the projection moves every nodal
    eigenvalue onto its clamped value: the dense eigenvalues of the
    projected field are those of the field clipped to the bounds, which
    cut nodes on both sides and leave others inside."""
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED)
    q = random_direction(mesh, rng, scale=3.0)
    lo, hi = -1.0, 2.0
    dense = np.linalg.eigvalsh(node_matrices(q))
    assert (dense < lo).any() and (dense > hi).any()
    assert ((dense > lo) & (dense < hi)).any()
    projected = project_spectral(q, lo, hi)
    assert np.allclose(np.linalg.eigvalsh(node_matrices(projected)),
                       np.clip(dense, lo, hi), atol=1e-12)


# ----------------------------------------------------------------- barrier

def test_barrier_constant_field_closed_form():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    ev = barrier(q, Q_MIN, Q_MAX)
    expected = -4.0 * (2.0 * np.log(0.5) + 2.0 * np.log(9.0))
    assert ev.value == pytest.approx(expected, rel=1e-12)


def test_barrier_midpoint_gradient_vanishes():
    mesh = build_mesh(2)
    mid = 0.5 * (Q_MIN + Q_MAX)
    q = MatrixControlField.constant(mesh, mid * np.eye(2))
    assert np.abs(barrier(q, Q_MIN, Q_MAX).density).max() <= 1e-12
    assert np.abs(barrier_gradient(q).comps).max() <= 1e-12


def test_barrier_infeasible_sentinel():
    mesh = build_mesh(1)
    q = MatrixControlField.constant(mesh, np.diag([0.3, 0.3]))
    ev = barrier(q, Q_MIN, Q_MAX)
    assert ev.value == np.inf
    assert ev.density is None


def test_barrier_gradient_matches_central_difference():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 1)
    q = random_admissible(mesh, rng)
    d = random_direction(mesh, rng)
    step = 1e-5
    up = barrier(q + step * d, Q_MIN, Q_MAX).value
    dn = barrier(q + (-step) * d, Q_MIN, Q_MAX).value
    fd = (up - dn) / (2.0 * step)
    dd = control_inner(barrier_gradient(q), d)
    assert dd == pytest.approx(fd, rel=1e-6)


def test_barrier_gradient_finite_difference_order():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(3):
        q = random_admissible(mesh, rng, margin=0.1)
        d = random_direction(mesh, rng)
        dd = control_inner(barrier_gradient(q), d)
        errs = []
        for step in (1e-2, 1e-3):
            up = barrier(q + step * d, Q_MIN, Q_MAX).value
            dn = barrier(q + (-step) * d, Q_MIN, Q_MAX).value
            errs.append(abs((up - dn) / (2.0 * step) - dd))
        order = np.log10(errs[0] / errs[1])
        assert order >= 1.9, f"central-difference order {order:.2f} too low"


def test_barrier_blows_up_along_ray_to_boundary():
    mesh = build_mesh(2)
    q0 = MatrixControlField.constant(mesh, 2.0 * np.eye(2))
    qb = MatrixControlField.constant(mesh, np.diag([Q_MIN, 1.0]))
    values = []
    for t in (0.9, 0.99, 0.999):
        qt = (1.0 - t) * q0 + t * qb
        values.append(barrier(qt, Q_MIN, Q_MAX).value)
    assert values[0] < values[1] < values[2]


# -------------------------------------------------------------- projection

def test_projection_fixed_point_on_feasible():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 3)
    q = random_admissible(mesh, rng)
    p = project_spectral(q, Q_MIN, Q_MAX, margin=0.0)
    assert np.allclose(p.comps, q.comps, atol=1e-13)


def test_projection_diagonal_clamp():
    mesh = build_mesh(1)
    q = MatrixControlField.constant(mesh, np.diag([0.0, 20.0]))
    p = project_spectral(q, Q_MIN, Q_MAX, margin=0.0)
    assert np.allclose(p.comps, np.tile([0.5, 10.0, 0.0], (mesh.n_nodes, 1)),
                       atol=1e-14)


def test_projection_hand_eigendecomposition():
    mesh = build_mesh(1)
    q = MatrixControlField.constant(mesh, [[2.0, -1.0], [-1.0, 2.0]])
    p = project_spectral(q, 1.5, 10.0, margin=0.0)
    assert np.allclose(p.comps, np.tile([2.25, 2.25, -0.75],
                                        (mesh.n_nodes, 1)), atol=1e-12)


def test_projection_always_admissible_with_margin():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 4)
    for _ in range(5):
        q = random_direction(mesh, rng, scale=20.0)
        p = project_spectral(q, Q_MIN, Q_MAX, margin=1e-6)
        assert check_admissible(p, Q_MIN, Q_MAX).admissible


# ----------------------------------------------------------- inner product

def test_inner_identity_field():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    assert control_inner(q, q) == pytest.approx(8.0, rel=1e-12)
    assert control_norm(q) == pytest.approx(np.sqrt(8.0), rel=1e-12)


def test_inner_symmetry():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 5)
    a = random_direction(mesh, rng)
    b = random_direction(mesh, rng)
    assert control_inner(a, b) == pytest.approx(control_inner(b, a),
                                                abs=1e-14, rel=1e-14)


def test_inner_offdiagonal_counted_twice():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, [[0.0, 1.0], [1.0, 0.0]])
    assert control_inner(q, q) == pytest.approx(8.0, rel=1e-12)


def test_inner_mesh_mismatch_raises():
    a = MatrixControlField.constant(build_mesh(2), np.eye(2))
    b = MatrixControlField.constant(build_mesh(3), np.eye(2))
    with pytest.raises(DimensionError):
        control_inner(a, b)


# ------------------------------------------------------ cached stiffness

@pytest.fixture
def stiffness_assemblies(monkeypatch):
    """Count the assemblies of a control's stiffness `q.stiffness` (the
    raw system of a direction field is not one)."""
    calls = []
    assemble = fem.assemble_stiffness

    def counted(mesh, q):
        calls.append(q)
        return assemble(mesh, q)

    monkeypatch.setattr(control, "assemble_stiffness", counted)
    return lambda: len(calls)


def _problem(level=3):
    mesh = build_mesh(level)
    q = MatrixControlField.constant(mesh, [[2.0, -1.0], [-1.0, 2.0]])
    return (mesh, q, assemble_load(mesh, manufactured_load),
            interpolate(mesh, desired_state))


def test_vi_solve_adjoint_and_derivatives_assemble_once(
        stiffness_assemblies):
    mesh, q, f, u_d = _problem()
    rng = np.random.default_rng(SEED)
    sol = solve_vi(q, f, 0.5)
    assert sol.strongly_active.any()
    solve_vi_adjoint(q, sol, u_d)
    cone = build_critical_cone(sol)
    d = random_direction(mesh, rng, scale=0.1)
    directional_derivative(q, random_direction(mesh, rng, scale=0.1), sol,
                           cone)
    u_t = directional_derivative(q, d, sol, cone)
    derivative_complementarity_check(u_t, cone, q,
                                     direction_load(q, d, sol.u))
    assert stiffness_assemblies() == 1
    assert q.stiffness is q.stiffness


def test_penalized_state_and_adjoint_assemble_once(stiffness_assemblies):
    _, q, f, u_d = _problem()
    pen = PenaltyConfig(gamma=1e3)
    solve_adjoint(q, solve_penalized(q, f, pen), u_d, pen)
    assert stiffness_assemblies() == 1


@pytest.mark.parametrize("level", [3, 4], ids=["same_level", "other_level"])
def test_solvers_refuse_a_coefficient_on_another_mesh(level):
    _, _, f, u_d = _problem()
    other = MatrixControlField.constant(build_mesh(level), np.eye(2))
    pen = PenaltyConfig(gamma=1e3)
    u = solve_penalized(MatrixControlField.constant(f.mesh, np.eye(2)), f,
                        pen)
    with pytest.raises(DimensionError, match="different mesh"):
        solve_vi(other, f, 0.5)
    with pytest.raises(DimensionError, match="different mesh"):
        solve_penalized(other, f, pen)
    with pytest.raises(DimensionError, match="different mesh"):
        solve_adjoint(other, u, u_d, pen)
    with pytest.raises(DimensionError, match="share the mesh"):
        direction_load(other, MatrixControlField.constant(f.mesh, np.eye(2)),
                       u)


def test_failed_assembly_is_not_cached(stiffness_assemblies):
    _, _, f, _ = _problem()
    q = MatrixControlField.constant(f.mesh, np.diag([1.0, -1.0]))
    for _ in range(2):
        with pytest.raises(CoefficientError, match="not positive definite"):
            solve_vi(q, f, 0.5)
    assert stiffness_assemblies() == 0
