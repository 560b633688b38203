"""PDAS obstacle solver against enumeration and manufactured oracles."""

import numpy as np
import pytest

from obstacle_control import (
    CoefficientError,
    MatrixControlField,
    NonconvergenceError,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    l2_error_vs_function,
    l2_norm,
)
from obstacle_control import obstacle
from obstacle_control.fem import prolongation
from obstacle_control.obstacle import (
    _ACTIVE_TOL,
    VISolution,
    pdas_bound_solve,
    complementarity_residuals,
    solve_vi,
)
from obstacle_control.problems import example_objective

from conftest import oracle_active_set_enumeration, random_admissible
from test_fem import desired_state, domain_integral_oracle, manufactured_load, q_d_components

SEED = 74205


def _interior_dense(mesh, K):
    idx = np.nonzero(mesh.interior_mask)[0]
    return K.matrix.toarray()[np.ix_(idx, idx)], idx


@pytest.fixture
def vi_levels(monkeypatch):
    """Route obstacle.solve_vi through a recorder of each call's level;
    the coarse solves of a nested start go through it too."""
    levels = []
    solve = obstacle.solve_vi

    def recorded(q, f_load, *args, **kwargs):
        levels.append(f_load.mesh.level)
        return solve(q, f_load, *args, **kwargs)

    monkeypatch.setattr(obstacle, "solve_vi", recorded)
    return levels


def test_zero_load_gives_zero_solution():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    sol = solve_vi(q, ScalarField(mesh, np.zeros(mesh.n_nodes)), psi=0.5)
    assert np.array_equal(sol.u.values, np.zeros(mesh.n_nodes))
    assert np.array_equal(sol.lam.values, np.zeros(mesh.n_nodes))
    assert not sol.active_set.any()


def test_manufactured_solution_rate_without_obstacle():
    errs = []
    for level in (4, 5, 6):
        mesh = build_mesh(level)
        q = MatrixControlField.from_function(mesh, q_d_components)
        f = assemble_load(mesh, manufactured_load)
        sol = solve_vi(q, f, psi=1e6)
        assert not sol.active_set.any()
        errs.append(l2_error_vs_function(sol.u, desired_state))
    rates = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(rates >= 1.9), f"observed rates {rates}"


def test_matches_enumeration_oracle_reference_instance():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = ScalarField(mesh, np.full(mesh.n_nodes, 10.0) * mesh.lumped_mass)
    # nodal density 10 as a load vector: integral(10 * phi_i) lumped
    sol = solve_vi(q, f, psi=0.1)
    K = assemble_stiffness(mesh, q)
    kd, idx = _interior_dense(mesh, K)
    u_ref, mu_ref = oracle_active_set_enumeration(kd, f.values[idx], 0.1)
    assert np.abs(sol.u.values[idx] - u_ref).max() <= 1e-10
    assert sol.active_set.any()
    # lumped multiplier times nodal mass equals the oracle residual
    mu_ours = sol.lam.values[idx] * mesh.lumped_mass[idx]
    assert np.abs(mu_ours - mu_ref).max() <= 1e-9


def test_matches_enumeration_oracle_randomized():
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED + 1)
    for trial in range(5):
        q = random_admissible(mesh, rng)
        f = ScalarField(mesh, rng.uniform(-5.0, 40.0, mesh.n_nodes))
        psi = rng.uniform(0.05, 0.5)
        sol = solve_vi(q, f, psi)
        K = assemble_stiffness(mesh, q)
        kd, idx = _interior_dense(mesh, K)
        u_ref, _ = oracle_active_set_enumeration(kd, f.values[idx], psi)
        err = np.abs(sol.u.values[idx] - u_ref).max()
        assert err <= 1e-10, f"trial {trial}: nodal max error {err:.2e}"


def test_enumeration_oracle_trivial_cases():
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.eye(2))
    K = assemble_stiffness(mesh, q)
    kd, idx = _interior_dense(mesh, K)
    # low load: empty active set, plain linear solve
    f_low = np.full(len(idx), 1e-3)
    u, mu = oracle_active_set_enumeration(kd, f_low, psi=0.5)
    assert np.allclose(u, np.linalg.solve(kd, f_low))
    assert np.array_equal(mu, np.zeros(len(idx)))
    # huge load: fully active, multiplier f - K psi
    f_hi = np.full(len(idx), 1e3)
    u, mu = oracle_active_set_enumeration(kd, f_hi, psi=0.5)
    assert np.allclose(u, 0.5)
    assert np.allclose(mu, f_hi - kd @ np.full(len(idx), 0.5))
    assert np.all(mu >= 0.0)


def test_converged_solution_passes_complementarity():
    mesh = build_mesh(4)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    sol = solve_vi(q, f, psi=0.3)
    feas_u, feas_lam, comp = complementarity_residuals(sol, 0.3)
    assert feas_u <= 1e-10
    assert feas_lam <= 1e-10
    assert comp <= 1e-10 * sol.f_norm * 0.3


def test_complementarity_residuals_hand_cases():
    mesh = build_mesh(2)
    psi = 0.5
    over = ScalarField(mesh, np.full(mesh.n_nodes, psi + 0.1))
    zl = ScalarField(mesh, np.zeros(mesh.n_nodes))
    empty = np.zeros(mesh.n_nodes, dtype=bool)
    sol = VISolution(over, zl, empty, empty, 0, 1.0, None)
    feas_u, feas_lam, comp = complementarity_residuals(sol, psi)
    assert feas_u == pytest.approx(0.1, abs=1e-15)
    assert feas_lam == 0.0
    assert comp == 0.0
    # one node with negative multiplier and one with positive gap product
    lam_vals = np.zeros(mesh.n_nodes)
    lam_vals[12] = -0.2
    u_vals = np.full(mesh.n_nodes, psi)
    sol2 = VISolution(ScalarField(mesh, u_vals), ScalarField(mesh, lam_vals),
                      empty, empty, 0, 1.0, None)
    _, feas_lam2, _ = complementarity_residuals(sol2, psi)
    assert feas_lam2 == pytest.approx(0.2, abs=1e-15)
    lam_vals2 = np.zeros(mesh.n_nodes)
    lam_vals2[12] = 2.0
    u_vals2 = np.full(mesh.n_nodes, psi)
    u_vals2[12] = psi + 0.05
    sol3 = VISolution(ScalarField(mesh, u_vals2),
                      ScalarField(mesh, lam_vals2), empty, empty, 0, 1.0,
                      None)
    _, _, comp3 = complementarity_residuals(sol3, psi)
    assert comp3 == pytest.approx(2.0 * mesh.lumped_mass[12] * 0.05,
                                  rel=1e-12)


def test_monotone_in_load():
    mesh = build_mesh(3)
    q = MatrixControlField.from_function(mesh, q_d_components)
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        f1 = rng.uniform(-1.0, 1.0, mesh.n_nodes) * mesh.lumped_mass * 10.0
        f2 = f1 + rng.uniform(0.0, 1.0, mesh.n_nodes) * mesh.lumped_mass * 10.0
        u1 = solve_vi(q, ScalarField(mesh, f1), psi=0.1).u.values
        u2 = solve_vi(q, ScalarField(mesh, f2), psi=0.1).u.values
        assert np.all(u1 <= u2 + 1e-10)


def test_energy_minimality_against_random_feasible_fields():
    mesh = build_mesh(3)
    psi = 0.3
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    sol = solve_vi(q, f, psi)
    K = assemble_stiffness(mesh, q)
    rhs = np.where(mesh.boundary_mask, 0.0, f.values)

    def energy(vals):
        return 0.5 * vals @ (K @ vals) - rhs @ vals

    e_star = energy(sol.u.values)
    rng = np.random.default_rng(SEED + 3)
    for _ in range(100):
        v = sol.u.values + rng.standard_normal(mesh.n_nodes) * 0.1
        v = np.minimum(v, psi)
        v[mesh.boundary_mask] = 0.0
        assert energy(v) >= e_star - 1e-12 * abs(e_star)


def test_multiplier_bound_diagnostic_example1():
    mesh = build_mesh(5)
    q = MatrixControlField.constant(mesh, [[2.0, -1.0], [-1.0, 2.0]])
    f = assemble_load(mesh, manufactured_load)
    sol = solve_vi(q, f, psi=0.5)
    assert sol.active_set.any()
    f_l2 = np.sqrt(domain_integral_oracle(lambda x, y: manufactured_load(x, y) ** 2))
    ratio = l2_norm(sol.lam) / f_l2
    assert ratio <= 4.5, f"multiplier ratio {ratio:.3f} above diagnostic bound"


def test_warm_start_converges_fast():
    mesh = build_mesh(4)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    sol = solve_vi(q, f, psi=0.3)
    warm = solve_vi(q, f, psi=0.3, active0=sol.active_set)
    assert warm.iterations <= 2
    assert np.abs(warm.u.values - sol.u.values).max() <= 1e-11


def test_iteration_budget_error(monkeypatch):
    """The cap holds on every level of a nested start too: at level 7 the
    cold solve at level 5, which starts the nest, hits it first."""
    for level, max_iters, stopped in ((4, 1, 4), (7, 2, 5)):
        mesh = build_mesh(level)
        q = MatrixControlField.constant(mesh, np.eye(2))
        f = assemble_load(mesh, manufactured_load)
        monkeypatch.setattr(obstacle, "_MAX_ITERS", max_iters)
        with pytest.raises(NonconvergenceError) as err:
            solve_vi(q, f, psi=0.01)
        assert err.value.active_sets is not None
        assert len(err.value.active_sets) == 2
        assert err.value.active_sets[0].size == build_mesh(stopped).n_nodes


def test_positive_obstacle_required(vi_levels):
    for level in (2, 6):
        mesh = build_mesh(level)
        q = MatrixControlField.constant(mesh, np.eye(2))
        for psi in (0.0, float("nan")):
            vi_levels.clear()
            with pytest.raises(ValueError):
                obstacle.solve_vi(
                    q, ScalarField(mesh, np.zeros(mesh.n_nodes)), psi=psi)
            assert vi_levels == [level]


def test_indefinite_coefficient_refused_before_coarse_work(vi_levels):
    mesh = build_mesh(6)
    comps = np.tile([1.0, 1.0, 0.0], (mesh.n_nodes, 1))
    # det < 0 at the odd node (1, 1), which no coarse grid holds
    comps[mesh.cells_per_side + 2] = [1.0, 1.0, 5.0]
    q = MatrixControlField(mesh, comps)
    with pytest.raises(CoefficientError, match="node 66"):
        obstacle.solve_vi(q, assemble_load(mesh, manufactured_load), 0.5)
    assert vi_levels == [6]


@pytest.fixture
def first_guesses(monkeypatch):
    """Route obstacle.solve_spd through a recorder of the CG start of the
    first solve on each grid size, keyed by the number of nodes."""
    guesses = {}
    solve = obstacle.solve_spd

    def recorded(system, b, *, x0):
        guesses.setdefault(b.shape[0], x0.copy())
        return solve(system, b, x0=x0)

    monkeypatch.setattr(obstacle, "solve_spd", recorded)
    return guesses


@pytest.fixture
def vi_solutions(monkeypatch):
    """Route obstacle.solve_vi through a recorder of each call's result,
    keyed by its level; a nested start's coarse solves go through it."""
    sols = {}
    solve = obstacle.solve_vi

    def recorded(q, f_load, *args, **kwargs):
        sol = solve(q, f_load, *args, **kwargs)
        sols[f_load.mesh.level] = sol
        return sol

    monkeypatch.setattr(obstacle, "solve_vi", recorded)
    return sols


def test_nested_start_only_for_cold_solves_above_the_coarsest_grid(
        vi_levels, first_guesses):
    """Only a nested start gives the first sweep a nonzero CG start; a
    warm start and a cold solve at the coarsest grid start it from
    zero."""
    for level, want in ((5, [5]), (6, [6, 5]), (7, [7, 6, 5])):
        mesh = build_mesh(level)
        q = MatrixControlField.constant(mesh, np.eye(2))
        f = assemble_load(mesh, manufactured_load)
        vi_levels.clear()
        first_guesses.clear()
        sol = obstacle.solve_vi(q, f, psi=0.3)
        assert vi_levels == want
        assert first_guesses[mesh.n_nodes].any() == (level > 5)
        vi_levels.clear()
        first_guesses.clear()
        obstacle.solve_vi(q, f, psi=0.3, active0=sol.active_set)
        assert vi_levels == [level]
        assert list(first_guesses) == [mesh.n_nodes]
        assert not first_guesses[mesh.n_nodes].any()


@pytest.mark.parametrize("level", [6, 7])
def test_nested_start_is_the_prolonged_coarse_solution(
        level, vi_solutions, first_guesses):
    """The first fine sweep's CG starts from P u_c, and a node starts
    active only when no coarse node its interpolant draws on is
    inactive."""
    mesh = build_mesh(level)
    q, f, psi = _convergence_problem(mesh)
    start, u0 = obstacle._nested_start(q, f, psi)
    coarse = vi_solutions[level - 1]
    p = prolongation(level)
    assert np.array_equal(u0, p @ coarse.u.values)
    assert not u0[mesh.boundary_mask].any()
    inactive_parent = abs(p) @ (~coarse.active_set).astype(float) > 0.0
    assert start.any()
    assert not (start & inactive_parent).any()
    assert not (start & mesh.boundary_mask).any()
    first_guesses.clear()
    obstacle.solve_vi(q, f, psi)
    assert np.array_equal(first_guesses[mesh.n_nodes], u0)


def _convergence_problem(mesh):
    obj = example_objective(mesh)
    return obj.q_d, obj.f_load, 0.5


def _anisotropic_problem(mesh):
    q = random_admissible(mesh, np.random.default_rng(SEED))
    return q, assemble_load(mesh, manufactured_load), 0.15


@pytest.mark.parametrize("level", [6, 7, 8])
@pytest.mark.parametrize("problem", [_convergence_problem,
                                     _anisotropic_problem])
def test_nested_start_matches_cold_loop(problem, level):
    """A cold solve reaches the solution of the trusted reference, the
    PDAS loop started from the empty active set, in a sweep count that
    does not grow with the level; the convergence problem's counts are
    pinned."""
    mesh = build_mesh(level)
    q, f, psi = problem(mesh)
    sol = solve_vi(q, f, psi)
    u, lam, active, _, _ = pdas_bound_solve(
        mesh, assemble_stiffness(mesh, q),
        np.where(mesh.boundary_mask, 0.0, f.values),
        np.full(mesh.n_nodes, psi), mesh.boundary_mask)
    assert active.any()
    assert np.array_equal(sol.active_set, active)
    strong = active & (lam > _ACTIVE_TOL * sol.f_norm)
    assert np.array_equal(sol.strongly_active, strong)
    for got, want in ((sol.u.values, u), (sol.lam.values, lam)):
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert sol.iterations <= 5
    if problem is _convergence_problem:
        assert sol.iterations == {6: 3, 7: 3, 8: 4}[level]


def test_strongly_active_subset_of_active():
    mesh = build_mesh(4)
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, manufactured_load)
    sol = solve_vi(q, f, psi=0.3)
    assert np.all(sol.active_set[sol.strongly_active])
