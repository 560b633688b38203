"""Penalized state Newton solver and adjoint consistency tests."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from obstacle_control import (
    MatrixControlField,
    NewtonError,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    interpolate,
    l2_norm,
    solve_spd,
)
from obstacle_control import penalty
from obstacle_control.obstacle import solve_vi
from obstacle_control.penalty import (
    PenaltyConfig,
    penalty_residual_as_multiplier,
    solve_adjoint,
    solve_penalized,
)

from conftest import random_admissible, random_direction
from test_fem import desired_state, manufactured_load

SEED = 31337
GAMMAS = (1e0, 1e3, 1e6, 1e9, 1e12)
Q_INIT = [[2.0, -1.0], [-1.0, 2.0]]


@pytest.mark.parametrize("gamma", [-1.0, float("nan")])
def test_penalty_weight_must_be_nonnegative(gamma):
    with pytest.raises(ValueError, match="gamma"):
        PenaltyConfig(gamma=gamma)


def test_gamma_zero_is_linear_solve():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    u = solve_penalized(q, f, PenaltyConfig(gamma=0.0))
    K = assemble_stiffness(mesh, q)
    expected, _ = solve_spd(K, f.values)
    assert np.array_equal(u.values, expected)


def test_cold_start_leaves_no_set_up_on_the_control():
    """The linear solve that starts a cold solve sets up a system of its
    own: the control's stiffness, which lives as long as the control,
    keeps no multigrid."""
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    solve_penalized(q, f, PenaltyConfig(gamma=1e6, psi=0.5))
    assert "multigrid" not in vars(q.stiffness)


def test_large_gamma_enforces_obstacle():
    mesh = build_mesh(5)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    u = solve_penalized(q, f, PenaltyConfig(gamma=1e12, psi=0.5))
    assert (u.values - 0.5).max() <= 1e-3


def test_gamma_sweep_approaches_vi_solution():
    mesh = build_mesh(4)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    vi = solve_vi(q, f, psi=0.5)
    assert vi.active_set.any()
    dists, viols, mult_dists = [], [], []
    u = None
    m = mesh.lumped_mass
    for gamma in GAMMAS:
        cfg = PenaltyConfig(gamma=gamma, psi=0.5)
        u = solve_penalized(q, f, cfg, u0=u)
        dists.append(l2_norm(u - vi.u))
        viols.append((u.values - 0.5).max())
        diff = penalty_residual_as_multiplier(u, cfg).values - vi.lam.values
        mult_dists.append(np.sqrt(np.sum(m * diff * diff)))
    assert np.all(np.diff(dists) < 0.0), f"distances not decreasing: {dists}"
    assert np.all(np.diff(viols) <= 0.0), f"violations increased: {viols}"
    assert np.all(np.diff(mult_dists) < 0.0), \
        f"multiplier distances not decreasing: {mult_dists}"


def test_adjoint_zero_when_tracking_matched():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    cfg = PenaltyConfig(gamma=1e3)
    u = solve_penalized(q, f, cfg)
    p = solve_adjoint(q, u, u, cfg)
    assert np.array_equal(p.values, np.zeros(mesh.n_nodes))


def test_adjoint_gamma_zero_is_plain_adjoint():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    cfg = PenaltyConfig(gamma=0.0)
    u = solve_penalized(q, f, cfg)
    u_d = interpolate(mesh, desired_state)
    p = solve_adjoint(q, u, u_d, cfg)
    K = assemble_stiffness(mesh, q)
    rhs = mesh.mass_matrix @ (u.values - u_d.values)
    rhs[mesh.boundary_mask] = 0.0
    expected = spla.spsolve(K.matrix.tocsc(), rhs)
    assert np.allclose(p.values, expected, atol=1e-12)


def test_adjoint_matches_central_difference():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    f = assemble_load(mesh, manufactured_load)
    u_d = interpolate(mesh, desired_state)
    cfg = PenaltyConfig(gamma=1e3, psi=0.5)

    def tracking(qq):
        u = solve_penalized(qq, f, cfg)
        return 0.5 * l2_norm(u - u_d) ** 2

    u = solve_penalized(q, f, cfg)
    p = solve_adjoint(q, u, u_d, cfg)
    for _ in range(3):
        d = random_direction(mesh, rng)
        k_d = mesh.stencil.matrix(assemble_stiffness(mesh, d).data)
        dd = -p.values @ (k_d @ u.values)
        h = 1e-5
        fd = (tracking(q + h * d) - tracking(q + (-h) * d)) / (2.0 * h)
        assert dd == pytest.approx(fd, rel=1e-5), \
            f"adjoint dd {dd:.8e} vs FD {fd:.8e}"


def test_multiplier_hand_value():
    mesh = build_mesh(3)
    u = ScalarField(mesh, np.full(mesh.n_nodes, 0.6))
    r = penalty_residual_as_multiplier(u, PenaltyConfig(gamma=1000.0, psi=0.5))
    interior = mesh.interior_mask
    # gap 0.1 everywhere: density 1000 * 0.1^3 = 1.0 at interior nodes
    assert np.allclose(r.values[interior], 1.0, atol=1e-12)


def test_multiplier_zero_below_obstacle():
    mesh = build_mesh(3)
    u = ScalarField(mesh, np.full(mesh.n_nodes, 0.4))
    r = penalty_residual_as_multiplier(u, PenaltyConfig(gamma=1e9, psi=0.5))
    assert np.array_equal(r.values, np.zeros(mesh.n_nodes))


def test_uniqueness_from_different_starts():
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    cfg = PenaltyConfig(gamma=1e6, psi=0.5)
    u1 = solve_penalized(q, f, cfg,
                         u0=ScalarField(mesh, np.zeros(mesh.n_nodes)))
    rng = np.random.default_rng(SEED + 1)
    start = ScalarField(
        mesh, np.where(mesh.boundary_mask, 0.0,
                       rng.uniform(-1.0, 1.0, mesh.n_nodes)))
    u2 = solve_penalized(q, f, cfg, u0=start)
    assert np.abs(u1.values - u2.values).max() <= 1e-9


def test_newton_jacobian_is_spd():
    from obstacle_control.penalty import _gap_at_quadrature, \
        _penalty_jacobian
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    cfg = PenaltyConfig(gamma=1e6, psi=0.3)
    u = solve_penalized(q, f, cfg)
    gap = _gap_at_quadrature(mesh, u.values, cfg.psi)
    assert gap.max() > 0.0
    K = assemble_stiffness(mesh, q)
    system = K.plus(_penalty_jacobian(mesh, gap, cfg.gamma)).matrix.toarray()
    assert np.allclose(system, system.T, atol=1e-10)
    assert np.linalg.eigvalsh(system).min() > 0.0


def test_newton_error_carries_history(monkeypatch):
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    monkeypatch.setattr(penalty, "_NEWTON_MAX", 1)
    with pytest.raises(NewtonError) as err:
        solve_penalized(q, f, PenaltyConfig(gamma=1e6, psi=0.3),
                        u0=ScalarField(mesh, np.zeros(mesh.n_nodes)))
    assert len(err.value.history) >= 1
