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
from obstacle_control.problems import initial_control, load_density

from conftest import full_grid_penalty, pinned_matrix, random_admissible, \
    random_direction
from test_fem import desired_state, manufactured_load

SEED = 31337
GAMMAS = (1e0, 1e3, 1e6, 1e9, 1e12)
Q_INIT = [[2.0, -1.0], [-1.0, 2.0]]


@pytest.mark.parametrize("gamma", [-1.0, float("nan"), float("inf")])
def test_penalty_weight_must_be_nonnegative(gamma):
    """A finite gamma >= 0; at gamma = inf the Newton line search would
    only report hitting its step floor."""
    with pytest.raises(ValueError, match="gamma"):
        PenaltyConfig(gamma=gamma)


@pytest.mark.parametrize("psi", [float("nan"), 0.0, -0.5])
def test_obstacle_must_be_positive(psi):
    """As `solve_vi` and the experiment config refuse it."""
    with pytest.raises(ValueError, match="psi must be positive"):
        PenaltyConfig(gamma=1e3, psi=psi)


def test_gamma_zero_is_linear_solve():
    """At gamma = 0 the penalty vanishes and Newton solves the linear
    equation. Where the obstacle is out of reach the cold start, the VI
    solve, is one sweep and that sweep is the stiffness solve, so the
    state is its bits; where there is contact Newton moves the VI state
    to the linear solution."""
    mesh = build_mesh(3)
    q = MatrixControlField.constant(mesh, Q_INIT)
    f = assemble_load(mesh, manufactured_load)
    K = assemble_stiffness(mesh, q)
    expected, _ = solve_spd(K, f.values)
    u = solve_penalized(q, f, PenaltyConfig(gamma=0.0, psi=1e6))
    assert np.array_equal(u.values, expected)
    assert solve_vi(q, f, 0.5).active_set.any()
    u = solve_penalized(q, f, PenaltyConfig(gamma=0.0))
    rhs = np.where(mesh.boundary_mask, 0.0, f.values)
    exact = spla.spsolve(pinned_matrix(K).tocsc(), rhs)
    assert np.abs(u.values - exact).max() <= 1e-12 * np.abs(exact).max()


def test_cold_start_leaves_no_set_up_on_the_control():
    """The VI solve that starts a cold solve sets up systems of its own:
    the control's stiffness, which lives as long as the control, keeps no
    multigrid."""
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
    expected = spla.spsolve(pinned_matrix(K).tocsc(), rhs)
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
        k_d = mesh.csr(assemble_stiffness(mesh, d).data)
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
    from obstacle_control.penalty import _contact, _penalty_jacobian
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    cfg = PenaltyConfig(gamma=1e6, psi=0.3)
    u = solve_penalized(q, f, cfg)
    contact = _contact(mesh, u.values, cfg.psi)
    assert contact[1].max() > 0.0
    K = assemble_stiffness(mesh, q)
    system = pinned_matrix(
        K.plus(_penalty_jacobian(mesh, *contact, cfg.gamma))).toarray()
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


def _contact_state(mesh, kind, psi):
    """A nodal state whose contact region is empty, touches the boundary,
    covers every interior node, or has its corners exactly at psi, one ulp
    below it, or a random number of ulps (0-39) below it."""
    x, _ = mesh.nodes.T
    inside = mesh.interior_mask
    if kind == "none":
        return np.where(inside, psi - 1e-3, 0.0)
    if kind == "boundary":
        return psi + 0.25 * x
    if kind == "all":
        return np.where(inside, psi + 0.1, 0.0)
    if kind == "at_psi":
        return np.where(inside, psi, 0.0)
    if kind == "ulp_below":
        return np.where(inside, np.nextafter(psi, 0.0), 0.0)
    rng = np.random.default_rng(SEED)
    return psi - rng.integers(0, 40, mesh.n_nodes) * np.spacing(psi)


@pytest.mark.parametrize("kind", ["none", "boundary", "all", "at_psi",
                                  "ulp_below", "ulps_below"])
@pytest.mark.parametrize("level", range(1, 7))
def test_contact_kernels_equal_the_full_grid_kernels(level, kind):
    """The gap, penalty vector and Jacobian data evaluated on the contact
    cells alone carry the bits of the all-cell kernels: every cell left
    out has a gap of exactly zero."""
    from obstacle_control.penalty import _contact, _penalty_jacobian, \
        _penalty_vector
    mesh = build_mesh(level)
    psi, gamma = 0.3, 1.7e6
    u = _contact_state(mesh, kind, psi)
    gap, vec, jac = full_grid_penalty(mesh, u, psi, gamma)
    contact = _contact(mesh, u, psi)
    cells, local_gap = contact
    assert np.all(np.diff(cells) > 0)
    on_cells = np.zeros_like(gap)
    on_cells[cells] = local_gap
    assert np.array_equal(on_cells, gap)
    assert np.array_equal(_penalty_vector(mesh, *contact, gamma), vec)
    assert np.array_equal(_penalty_jacobian(mesh, *contact, gamma), jac)
    if kind == "none":
        assert cells.size == 0
    if kind in ("all", "at_psi", "ulp_below"):
        assert cells.size == mesh.n_cells


@pytest.mark.parametrize("gamma", [1e9, 1e12])
@pytest.mark.parametrize("level", [3, 5])
def test_cold_solve_agrees_with_the_warm_ladder(level, gamma):
    """A cold solve at a large gamma, which starts from the VI state,
    agrees with the warm ladder 1e6 -> 1e9 -> 1e12 of
    `gamma_continuation`'s legs."""
    mesh = build_mesh(level)
    q = initial_control(mesh)
    f = assemble_load(mesh, load_density)
    cold = solve_penalized(q, f, PenaltyConfig(gamma=gamma, psi=0.5))
    assert cold.values.max() > 0.5
    warm = solve_penalized(q, f, PenaltyConfig(gamma=1e6, psi=0.5))
    for step in [g for g in (1e9, 1e12) if g <= gamma]:
        warm = solve_penalized(q, f, PenaltyConfig(gamma=step, psi=0.5),
                               u0=warm)
    assert np.abs(cold.values - warm.values).max() <= 1e-12


def _count_newton_solves(monkeypatch):
    """A list whose length is the number of linear solves made by the
    penalty module from now on: Newton steps and adjoints, not the
    sweeps of the VI solve that starts a cold solve."""
    solves = []
    solve = penalty.solve_spd

    def counted(A, b, x0=None):
        solves.append(b.size)
        return solve(A, b, x0)

    monkeypatch.setattr(penalty, "solve_spd", counted)
    return solves


@pytest.mark.parametrize("gamma", [1e9, 1e12])
@pytest.mark.parametrize("control", ["default", "soft"])
@pytest.mark.parametrize("level", range(3, 8))
def test_cold_large_gamma_newton_count_stays_flat(monkeypatch, level,
                                                   control, gamma):
    """Newton from the VI state takes at most 10 linear solves at every
    level, on the default control and on a low-stiffness random one."""
    mesh = build_mesh(level)
    if control == "default":
        q = initial_control(mesh)
    else:
        q = random_admissible(mesh, np.random.default_rng(8), q_min=0.5,
                              q_max=1.5)
    f = assemble_load(mesh, load_density)
    solves = _count_newton_solves(monkeypatch)
    u = solve_penalized(q, f, PenaltyConfig(gamma=gamma, psi=0.5))
    assert len(solves) <= 10
    assert u.values.max() > 0.5


def test_cold_large_gamma_converges_on_a_soft_rough_control(monkeypatch):
    """A cold solve at gamma = 1e12 on a low-stiffness random control,
    where the contact is wide, converges at level 7 in at most 10 Newton
    steps. Newton started straight from the linear solution needs more
    steps as the mesh refines and fails here; a continuation in gamma
    from the linear solution takes about 40 linear solves at every
    level."""
    mesh = build_mesh(7)
    q = random_admissible(mesh, np.random.default_rng(7), q_min=0.5,
                          q_max=1.5)
    f = assemble_load(mesh, load_density)
    solves = _count_newton_solves(monkeypatch)
    u = solve_penalized(q, f, PenaltyConfig(gamma=1e12, psi=0.5))
    assert len(solves) <= 10
    assert 0.0 < u.values.max() - 0.5 <= 1e-3
