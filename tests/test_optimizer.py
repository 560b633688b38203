"""Projected-gradient optimizer tests: gradient consistency, descent
properties, fail-loud exits, penalty continuation, and the VI-constrained
reference solve."""

from dataclasses import replace

import numpy as np
import pytest

from obstacle_control import (
    CoefficientError,
    MatrixControlField,
    ScalarField,
    StagnationError,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    control_norm,
    interpolate,
    l2_norm,
    solve_spd,
)
from obstacle_control import control, experiments, fem, linsolve, obstacle, \
    optimize, penalty
from obstacle_control.experiments import load_config, run_example1
from obstacle_control.obstacle import complementarity_residuals, solve_vi
from obstacle_control.penalty import PenaltyConfig, solve_penalized
from obstacle_control.problems import example_objective
from obstacle_control.optimize import (
    _MEMORY,
    _SIGMA,
    ObjectiveConfig,
    gamma_continuation,
    minimize,
    objective_value,
    reduced_gradient,
    solve_vi_adjoint,
    solve_vi_constrained,
    stationarity_residual,
)

from conftest import random_admissible, random_direction
from test_fem import desired_state, manufactured_load, q_d_components

SEED = 8472
Q_INIT = [[2.0, -1.0], [-1.0, 2.0]]


def example_config(mesh, beta=1e-4):
    return ObjectiveConfig(
        alpha=0.1, beta=beta,
        u_d=interpolate(mesh, desired_state),
        q_d=MatrixControlField.from_function(mesh, q_d_components),
        q_min=0.5, q_max=10.0,
        f_load=assemble_load(mesh, manufactured_load))


def stationarity_vi(q, u, p, cfg):
    """Projected-gradient residual of the reduced gradient at (q, u, p)."""
    return stationarity_residual(q, reduced_gradient(q, u, p, cfg),
                                 cfg.q_min, cfg.q_max)


def total_objective(q, cfg, pen):
    from obstacle_control.control import barrier
    u = solve_penalized(q, cfg.f_load, pen)
    value = 0.5 * l2_norm(u - cfg.u_d) ** 2 \
        + 0.5 * cfg.alpha * control_norm(q - cfg.q_d) ** 2
    if cfg.beta > 0.0:
        value += cfg.beta * barrier(q, cfg.q_min, cfg.q_max).value
    return value


def test_objective_config_validation():
    mesh = build_mesh(2)
    u_d = ScalarField(mesh, np.zeros(mesh.n_nodes))
    q_d = MatrixControlField.constant(mesh, np.eye(2))
    f = ScalarField(mesh, np.zeros(mesh.n_nodes))
    with pytest.raises(ValueError, match="alpha"):
        ObjectiveConfig(0.0, 0.0, u_d, q_d, 0.5, 10.0, f)
    with pytest.raises(ValueError, match="alpha"):
        ObjectiveConfig(float("nan"), 0.0, u_d, q_d, 0.5, 10.0, f)
    with pytest.raises(ValueError, match="beta"):
        ObjectiveConfig(0.1, float("nan"), u_d, q_d, 0.5, 10.0, f)
    with pytest.raises(ValueError, match="beta"):
        ObjectiveConfig(0.1, -1.0, u_d, q_d, 0.5, 10.0, f)
    with pytest.raises(ValueError, match="q_min"):
        ObjectiveConfig(0.1, 0.0, u_d, q_d, 10.0, 0.5, f)


def test_gradient_is_tikhonov_for_zero_load():
    mesh = build_mesh(3)
    zero = ScalarField(mesh, np.zeros(mesh.n_nodes))
    cfg = ObjectiveConfig(
        alpha=0.1, beta=0.0, u_d=zero,
        q_d=MatrixControlField.from_function(mesh, q_d_components),
        q_min=0.5, q_max=10.0, f_load=zero)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    u = solve_penalized(q, cfg.f_load, pen)
    assert np.array_equal(u.values, np.zeros(mesh.n_nodes))
    g = reduced_gradient(q, u, zero, cfg)
    assert np.allclose(g.comps, 0.1 * (q.comps - cfg.q_d.comps), atol=1e-15)


def test_gradient_matches_central_differences():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    rng = np.random.default_rng(SEED + 1)
    q = random_admissible(mesh, rng, margin=0.1)
    from obstacle_control.penalty import solve_adjoint
    u = solve_penalized(q, cfg.f_load, pen)
    p = solve_adjoint(q, u, cfg.u_d, pen)
    g = reduced_gradient(q, u, p, cfg)
    h = 1e-5
    for _ in range(5):
        d = random_direction(mesh, rng)
        dd = (
            g.comps[:, 0] @ (mesh.mass_matrix @ d.comps[:, 0])
            + g.comps[:, 1] @ (mesh.mass_matrix @ d.comps[:, 1])
            + 2.0 * (g.comps[:, 2] @ (mesh.mass_matrix @ d.comps[:, 2])))
        fd = (total_objective(q + h * d, cfg, pen)
              - total_objective(q + (-h) * d, cfg, pen)) / (2.0 * h)
        assert dd == pytest.approx(fd, rel=1e-4), f"{dd:.8e} vs {fd:.8e}"


def test_manufactured_optimum_terminates_immediately():
    mesh = build_mesh(4)
    f = assemble_load(mesh, manufactured_load)
    q_d = MatrixControlField.from_function(mesh, q_d_components)
    K = assemble_stiffness(mesh, q_d)
    u_star, _ = solve_spd(K, f.values)
    u_star = ScalarField(mesh, u_star)
    cfg = ObjectiveConfig(alpha=0.1, beta=0.0, u_d=u_star, q_d=q_d,
                          q_min=0.5, q_max=10.0, f_load=f)
    res = minimize(q_d, cfg, PenaltyConfig(gamma=0.0, psi=1e6))
    assert res.converged
    assert res.iterations <= 2
    assert res.pg_residual <= 1e-10
    # beta = 0 drops the (here negative) barrier as +0.0, not -0.0
    assert all(np.copysign(1.0, e.barrier_term) == 1.0 for e in res.history)


def test_objective_value_refuses_inadmissible_control_at_every_beta():
    """Definite, but below q_min: the descent refuses such a control as a
    start or a trial, and so does objective_value, whatever beta is."""
    mesh = build_mesh(2)
    q = MatrixControlField.constant(mesh, np.diag([0.3, 2.0]))
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    for beta in (0.0, 1e-4):
        with pytest.raises(CoefficientError, match="spectral bounds"):
            objective_value(q, example_config(mesh, beta=beta), pen)


def test_objective_monotone_armijo_and_violation():
    mesh = build_mesh(5)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    res = minimize(q0, cfg, PenaltyConfig(gamma=1e6, psi=0.5))
    assert res.converged
    vals = [e.objective for e in res.history]
    assert np.all(np.diff(vals) < 0.0)
    # Armijo certificate replay over the recorded history
    for cur, nxt in zip(res.history, res.history[1:]):
        assert nxt.objective <= cur.objective \
            - 1e-4 * cur.step * cur.grad_norm ** 2 + 1e-15
    # cubic penalty leaves a gap of order (lambda_max/gamma)^(1/3); the
    # multiplier peaks near 4 here, so the scale is (4e-6)^(1/3) = 1.6e-2
    assert (res.u.values - 0.5).max() <= 2e-2
    assert res.history[-1].step == 0.0
    assert res.history[-1].pg_residual == res.pg_residual


def test_nonmonotone_certificate_replay():
    """Every accepted objective lies below the maximum of the previous
    _MEMORY ones by the sufficient-decrease term, and every iterate is
    strictly admissible; the run does take steps that raise the
    objective."""
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    res = minimize(q0, cfg, PenaltyConfig(gamma=1.0, psi=0.5))
    assert res.converged
    hist = res.history
    vals = [e.objective for e in hist]
    assert np.any(np.diff(vals) > 0.0)
    for k in range(1, len(hist)):
        reference = max(vals[max(0, k - _MEMORY):k])
        prev = hist[k - 1]
        assert vals[k] <= reference - _SIGMA * prev.step * prev.grad_norm ** 2
    assert all(e.feasibility_margin > 0.0 for e in hist)


def test_iterates_strictly_admissible(monkeypatch):
    """Past the rounding floor no step brings a new minimum, so the stall
    exit ends the run; every iterate of its history is strictly
    admissible."""
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    monkeypatch.setattr(optimize, "_MAX_ITERS", 25)
    monkeypatch.setattr(optimize, "_GRAD_TOL_REL", 1e-30)
    with pytest.raises(StagnationError, match="no new minimum") as err:
        minimize(q0, cfg, PenaltyConfig(gamma=1e3, psi=0.5))
    history = err.value.history
    assert _MEMORY < len(history) <= 26
    assert all(e.feasibility_margin > 0.0 for e in history)


def test_beta_sweep_barrier_path():
    mesh = build_mesh(3)
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    barrier_parts, tracking_parts = [], []
    for beta in (1e-2, 1e-3, 1e-4):
        cfg = example_config(mesh, beta=beta)
        res = minimize(q0, cfg, pen)
        assert res.converged
        barrier_parts.append(res.history[-1].barrier_term)
        tracking_parts.append(res.history[-1].tracking)
    # the barrier's contribution to the objective fades in magnitude
    assert np.all(np.diff(np.abs(barrier_parts)) < 0.0), barrier_parts
    # weaker barrier lets the tracking improve, up to small slack
    assert all(t1 <= t0 * 1.05 + 1e-12
               for t0, t1 in zip(tracking_parts, tracking_parts[1:])), \
        tracking_parts


def test_stationarity_zero_at_tikhonov_optimum():
    mesh = build_mesh(3)
    q_d = MatrixControlField.from_function(mesh, q_d_components)
    zero = ScalarField(mesh, np.zeros(mesh.n_nodes))
    cfg = ObjectiveConfig(alpha=0.1, beta=0.0, u_d=zero, q_d=q_d,
                          q_min=0.5, q_max=10.0, f_load=zero)
    r = stationarity_vi(q_d, zero, zero, cfg)
    assert r == 0.0


def test_stationarity_large_at_start_small_at_optimum():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    sol = solve_vi(q0, cfg.f_load, 0.5)
    p = solve_vi_adjoint(q0, sol, cfg.u_d)
    assert np.array_equal(p.values[sol.strongly_active],
                          np.zeros(int(sol.strongly_active.sum())))
    r0 = stationarity_vi(q0, sol.u, p, cfg)
    assert r0 > 1e-2
    res = minimize(q0, cfg, PenaltyConfig(gamma=1e3, psi=0.5))
    from obstacle_control.penalty import solve_adjoint
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    p_star = solve_adjoint(res.q, res.u, cfg.u_d, pen)
    r_star = stationarity_vi(res.q, res.u, p_star, cfg)
    assert r_star <= 1e-6


def test_gamma_continuation_single_equals_minimize():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    legs = gamma_continuation(q0, cfg, [1e3], 0.5)
    direct = minimize(q0, cfg, PenaltyConfig(gamma=1e3, psi=0.5))
    assert len(legs) == 1
    assert legs[0].err_u is None
    assert np.array_equal(legs[0].result.q.comps, direct.q.comps)


def test_gamma_continuation_monotone_distances():
    mesh = build_mesh(4)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    ref = solve_vi_constrained(q0, cfg, 0.5)
    assert ref.converged
    legs = gamma_continuation(q0, cfg, [1e0, 1e3, 1e6, 1e9], 0.5,
                              reference=ref)
    err_u = [leg.err_u for leg in legs]
    viol = [(leg.result.u.values - 0.5).max() for leg in legs]
    assert np.all(np.diff(err_u) < 0.0), err_u
    assert np.all(np.diff(viol) <= 0.0), viol
    err_q = [leg.err_q for leg in legs]
    assert np.all(np.diff(err_q) < 0.0), err_q


def _count_penalty_solves(monkeypatch):
    """A list whose length is the number of linear solves made by the
    penalty module and by the VI solves of its cold starts from now on
    (Newton steps, adjoints, PDAS sweeps)."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return solve_spd(*args, **kwargs)

    monkeypatch.setattr(penalty, "solve_spd", counted)
    monkeypatch.setattr(obstacle, "solve_spd", counted)
    return calls


def test_gamma_continuation_warm_legs_match_cold_starts(monkeypatch):
    """Starting each leg's first state solve from the previous leg's state
    keeps every leg's iterations and the table within 1e-10, with fewer
    penalized-path solves than starting each leg cold from the VI state
    (at level 5; at level 3 warm legs take one solve more)."""
    mesh = build_mesh(5)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    gammas = (1e0, 1e3, 1e6, 1e9, 1e12)
    ref = solve_vi_constrained(q0, cfg, 0.5)
    calls = _count_penalty_solves(monkeypatch)
    legs = gamma_continuation(q0, cfg, gammas, 0.5, reference=ref)
    warm_solves = len(calls)
    calls.clear()
    q = q0
    for gamma, leg in zip(gammas, legs):
        cold = minimize(q, cfg, PenaltyConfig(gamma=gamma, psi=0.5))
        q = cold.q
        assert leg.result.converged and cold.converged
        assert leg.result.iterations == cold.iterations
        for got, want in ((leg.err_u, l2_norm(cold.u - ref.u)),
                          (leg.err_q, control_norm(cold.q - ref.q))):
            assert abs(got - want) <= 1e-10 * want
    assert warm_solves < len(calls), (warm_solves, len(calls))


def test_gamma_continuation_jumps_to_a_large_gamma():
    """A warm leg converges from the state at gamma = 1 straight to
    gamma = 1e12."""
    mesh = build_mesh(4)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    legs = gamma_continuation(q0, cfg, [1e0, 1e12], 0.5)
    assert all(leg.result.converged for leg in legs)
    assert (legs[1].result.u.values - 0.5).max() \
        < (legs[0].result.u.values - 0.5).max()


def test_gamma_continuation_validates_list():
    mesh = build_mesh(2)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    with pytest.raises(ValueError, match="empty"):
        gamma_continuation(q0, cfg, [], 0.5)
    with pytest.raises(ValueError, match="increasing"):
        gamma_continuation(q0, cfg, [1e3, 1e3], 0.5)


def test_vi_constrained_matches_smooth_when_obstacle_inactive():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    res_vi = solve_vi_constrained(q0, cfg, 1e6)
    res_pen = minimize(q0, cfg, PenaltyConfig(gamma=1e3, psi=1e6))
    assert res_vi.converged and res_pen.converged
    assert control_norm(res_vi.q - res_pen.q) <= 1e-8


def test_vi_constrained_contact_region_and_multiplier():
    mesh = build_mesh(4)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    res = solve_vi_constrained(q0, cfg, 0.5)
    assert res.converged
    sol = solve_vi(res.q, cfg.f_load, 0.5)
    assert sol.active_set.sum() > 0
    # contact sits where the target state exceeds the obstacle (center)
    xy = mesh.nodes[sol.active_set]
    assert np.abs(xy).max() <= 0.8
    assert sol.lam.values.min() >= -1e-10
    feas, neg, comp = complementarity_residuals(sol, 0.5)
    assert max(feas, neg, comp) <= 1e-8


def test_stagnation_raises_with_history(monkeypatch):
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    monkeypatch.setattr(optimize, "_STEP_INIT", 1e6)
    monkeypatch.setattr(optimize, "_MAX_BACKTRACKS", 0)
    with pytest.raises(StagnationError) as err:
        minimize(q0, cfg, pen)
    assert len(err.value.history) >= 1


def test_budget_exhaustion_returns_unconverged(monkeypatch):
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    monkeypatch.setattr(optimize, "_MAX_ITERS", 3)
    monkeypatch.setattr(optimize, "_GRAD_TOL_REL", 1e-30)
    res = minimize(q0, cfg, PenaltyConfig(gamma=1e3, psi=0.5))
    assert not res.converged
    assert res.iterations == 3
    assert len(res.history) == 4


def _flipped_tracking(monkeypatch):
    tracking = optimize._tracking_gradient
    monkeypatch.setattr(optimize, "_tracking_gradient",
                        lambda mesh, u, p: -tracking(mesh, u, p))


def _dropped_barrier(monkeypatch):
    gradient = optimize.reduced_gradient

    def without_barrier(q, u, p, cfg, bar):
        return gradient(q, u, p, replace(cfg, beta=0.0), bar)

    monkeypatch.setattr(optimize, "reduced_gradient", without_barrier)


@pytest.mark.parametrize("level", [4, 5])
@pytest.mark.parametrize("mutation", [_flipped_tracking, _dropped_barrier],
                         ids=["flipped_tracking", "dropped_barrier"])
def test_wrong_gradient_raises_stagnation(mutation, level, monkeypatch,
                                         tmp_path):
    """A gradient that does not match the objective never reports
    convergence."""
    mutation(monkeypatch)
    cfg = load_config(None, [], output_dir=str(tmp_path), level=level)
    with pytest.raises(StagnationError):
        run_example1(cfg)


def test_stall_exit_example1_level6(tmp_path):
    """At the level-6 kink of example1 no step brings a new minimum; the
    run raises instead of spinning to the iteration cap."""
    cfg = load_config(None, [], output_dir=str(tmp_path), level=6)
    with pytest.raises(StagnationError, match="no new minimum") as err:
        run_example1(cfg)
    assert len(err.value.history) < 200


def test_example1_solves_each_control_once(monkeypatch, tmp_path):
    """run_example1 reads the optimum's contact sets and complementarity
    from the descent's own VI solution: solve_vi runs once per evaluated
    control, and the optimum is not solved again. A cold solve there
    finds the same sets."""
    controls = []
    solve = obstacle.solve_vi

    def recorded(q, *args, **kwargs):
        controls.append(q)
        return solve(q, *args, **kwargs)

    for module in (optimize, experiments):
        monkeypatch.setattr(module, "solve_vi", recorded)
    cfg = load_config(None, [], output_dir=str(tmp_path), level=3)
    report = run_example1(cfg)
    result = report.result
    assert len({id(q) for q in controls}) == len(controls)
    assert sum(q is result.q for q in controls) == 1
    sol = result.solution
    assert sol.u is result.u and sol.lam is result.multiplier
    assert report.notes["contact_nodes"] == int(sol.active_set.sum())
    f_load = example_objective(result.q.mesh).f_load
    cold = solve(result.q, f_load, cfg.psi)
    assert np.array_equal(cold.active_set, sol.active_set)
    assert np.array_equal(cold.strongly_active, sol.strongly_active)


def test_each_control_runs_the_barrier_once_and_each_gradient_one_lift(
        monkeypatch, tmp_path):
    """run_example1 at level 3: the barrier runs once per evaluated control
    (the controls the state is solved at, each once), and each reduced
    gradient makes one mass solve, its Riesz lift, reusing the barrier of
    its control."""
    events = []

    def record(module, name, tag):
        fn = getattr(module, name)

        def recorded(*args, **kwargs):
            events.append((tag, args[0]))
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, recorded)

    record(optimize, "barrier", "barrier")
    record(optimize, "solve_vi", "state")
    record(optimize, "reduced_gradient", "gradient")
    record(control, "solve_spd", "mass")
    run_example1(load_config(None, [], output_dir=str(tmp_path), level=3))
    barriers = [q for tag, q in events if tag == "barrier"]
    states = [q for tag, q in events if tag == "state"]
    assert len(barriers) == len(states) == len({id(q) for q in states})
    assert all(b is s for b, s in zip(barriers, states))
    tags = [tag for tag, _ in events]
    assert tags.count("mass") == tags.count("gradient") == len(states)
    assert all(tags[i - 1] == "gradient"
               for i, tag in enumerate(tags) if tag == "mass")


def test_vi_adjoint_reuses_the_last_sweeps_set_up(monkeypatch, tmp_path):
    """run_example1 at level 3 makes 23 stiffness solves but sets up the
    multigrid (one band each, below level 6) only for its 14 PDAS sweeps:
    every VI adjoint solves its state's last sweep's system again."""
    counts = {"solves": 0, "set-ups": 0}
    solve_grid, band = linsolve._solve_grid, fem._band

    def counted_solve(*args):
        counts["solves"] += 1
        return solve_grid(*args)

    def counted_band(*args):
        counts["set-ups"] += 1
        return band(*args)

    monkeypatch.setattr(linsolve, "_solve_grid", counted_solve)
    monkeypatch.setattr(fem, "_band", counted_band)
    run_example1(load_config(None, [], output_dir=str(tmp_path), level=3))
    assert counts == {"solves": 23, "set-ups": 14}


def test_vi_adjoint_with_biactive_nodes_pins_only_the_strong_ones():
    """Without biactive nodes the adjoint has the bits of a solve on a
    newly pinned system; with some, it frees them as that solve does,
    although the last sweep's system pins them."""
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    sol = solve_vi(q0, cfg.f_load, 0.5)
    assert np.array_equal(sol.strongly_active, sol.active_set)
    assert sol.active_set.sum() >= 2
    rhs = mesh.mass_matrix @ (sol.u.values - cfg.u_d.values)
    p = solve_vi_adjoint(q0, sol, cfg.u_d).values
    fresh, _ = solve_spd(q0.stiffness.pin(sol.strongly_active), rhs)
    assert np.array_equal(p, fresh)
    strong = sol.active_set.copy()
    strong[np.flatnonzero(strong)[0]] = False
    biactive = replace(sol, strongly_active=strong)
    p_bi = solve_vi_adjoint(q0, biactive, cfg.u_d).values
    fresh_bi, _ = solve_spd(q0.stiffness.pin(strong), rhs)
    assert np.array_equal(p_bi, fresh_bi)
    assert np.any(p_bi[sol.active_set & ~strong] != 0.0)
