"""Directional-derivative tests: critical cone classification, the
cone-constrained derivative solve against difference quotients, its
complementarity system, and the primal first-order condition."""

import numpy as np
import pytest

from obstacle_control import (
    DimensionError,
    MatrixControlField,
    ScalarField,
    assemble_load,
    barrier,
    build_mesh,
    check_admissible,
    control_inner,
    control_norm,
    interpolate,
    l2_inner,
    l2_norm,
)
from obstacle_control import sensitivity
from obstacle_control.control import riesz_lift
from obstacle_control.experiments import load_config, run_sensitivity
from obstacle_control.obstacle import solve_vi
from obstacle_control.optimize import ObjectiveConfig, solve_vi_constrained
from obstacle_control.sensitivity import (
    CriticalCone,
    _derivative_multiplier,
    build_critical_cone,
    cone_derivative,
    derivative_complementarity_check,
    direction_load,
    directional_derivative,
)

from conftest import random_admissible, random_direction
from test_fem import desired_state, manufactured_load, q_d_components

SEED = 4242
PSI = 0.5
Q_INIT = np.array([[2.0, -1.0], [-1.0, 2.0]])


def example_setup(level=3):
    mesh = build_mesh(level)
    f = assemble_load(mesh, manufactured_load)
    q = MatrixControlField.constant(mesh, Q_INIT)
    sol = solve_vi(q, f, PSI)
    return mesh, f, q, sol


def example_config(mesh, beta=1e-4):
    return ObjectiveConfig(
        alpha=0.1, beta=beta,
        u_d=interpolate(mesh, desired_state),
        q_d=MatrixControlField.from_function(mesh, q_d_components),
        q_min=0.5, q_max=10.0,
        f_load=assemble_load(mesh, manufactured_load))


def primal_first_order_check(q_star, candidates, cfg, sol):
    """Minimum directional value of the primal stationarity condition.

    For each candidate q the direction d = q - q_star gets the value

        (u - u_d, S'(q_star; d)) + alpha <q_star - q_d, d> + beta <B', d>,

    with S' the cone derivative at the VI solution sol. At a local
    minimizer the value is nonnegative for every admissible candidate, up
    to solver tolerances; a clearly negative minimum certifies descent.
    """
    cone = build_critical_cone(sol)
    density = barrier(q_star, cfg.q_min, cfg.q_max).density
    grad_b = MatrixControlField(q_star.mesh,
                                riesz_lift(q_star.mesh, density))
    values = []
    for cand in candidates:
        d = cand - q_star
        u_t = directional_derivative(q_star, d, sol, cone)
        values.append(l2_inner(sol.u - cfg.u_d, u_t)
                      + cfg.alpha * control_inner(q_star - cfg.q_d, d)
                      + cfg.beta * control_inner(grad_b, d))
    return min(values)


def quotient_error(q, d, t, f, sol, u_tilde, psi=PSI):
    solt = solve_vi(q + t * d, f, psi, active0=sol.active_set)
    quot = (solt.u.values - sol.u.values) / t
    return l2_norm(ScalarField(q.mesh, quot - u_tilde.values))


def test_cone_partitions_interior():
    mesh, f, q, sol = example_setup()
    assert sol.strongly_active.any()
    cone = build_critical_cone(sol)
    assert np.array_equal(cone.zero_nodes, sol.strongly_active)
    interior = mesh.interior_mask
    assert not (cone.zero_nodes & cone.nonpositive_nodes).any()
    assert not (cone.zero_nodes & cone.free_nodes).any()
    assert not (cone.nonpositive_nodes & cone.free_nodes).any()
    union = cone.zero_nodes | cone.nonpositive_nodes | cone.free_nodes
    assert np.array_equal(union, interior)
    assert not (cone.zero_nodes & ~sol.active_set).any()
    assert np.array_equal(cone.nonpositive_nodes,
                          sol.active_set & interior & ~cone.zero_nodes)


def test_cone_without_contact_is_whole_space():
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    sol = solve_vi(q, assemble_load(mesh, manufactured_load), 1e6)
    assert not sol.active_set.any()
    cone = build_critical_cone(sol)
    assert not cone.zero_nodes.any()
    assert not cone.nonpositive_nodes.any()
    assert np.array_equal(cone.free_nodes, mesh.interior_mask)


def test_cone_example_contact_pins_center_region():
    mesh, f, q, sol = example_setup()
    cone = build_critical_cone(sol)
    assert cone.zero_nodes.any()
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    assert np.all(np.abs(x[cone.zero_nodes]) <= 0.8)
    assert np.all(np.abs(y[cone.zero_nodes]) <= 0.8)


def test_zero_direction_gives_zero_derivative():
    mesh, f, q, sol = example_setup()
    cone = build_critical_cone(sol)
    d = MatrixControlField.constant(mesh, np.zeros((2, 2)))
    ut = directional_derivative(q, d, sol, cone)
    assert np.array_equal(ut.values, np.zeros(mesh.n_nodes))


def test_proportional_coefficient_scaling_identity():
    # without contact and q = I, d = eps*I: K_I utilde = -eps K_I u,
    # so utilde = -eps*u up to linear solver tolerance
    mesh = build_mesh(3)
    f = assemble_load(mesh, manufactured_load)
    q = MatrixControlField.constant(mesh, np.eye(2))
    sol = solve_vi(q, f, 1e6)
    cone = build_critical_cone(sol)
    eps = 0.3
    d = MatrixControlField.constant(mesh, eps * np.eye(2))
    ut = directional_derivative(q, d, sol, cone)
    assert np.abs(ut.values + eps * sol.u.values).max() < 1e-9


def test_quotient_error_decreases_with_contact():
    mesh, f, q, sol = example_setup()
    assert sol.active_set.any()
    cone = build_critical_cone(sol)
    rng = np.random.default_rng(SEED)
    for _ in range(3):
        d = random_direction(mesh, rng, scale=0.1)
        assert check_admissible(q + d, 0.5, 10.0).admissible
        ut = directional_derivative(q, d, sol, cone)
        errs = [quotient_error(q, d, t, f, sol, ut)
                for t in (1e-2, 1e-3, 1e-4)]
        assert errs[0] > errs[1] > errs[2]


def test_no_contact_quotient_first_order_in_t():
    mesh = build_mesh(3)
    f = assemble_load(mesh, manufactured_load)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    sol = solve_vi(q, f, 1e6)
    cone = build_critical_cone(sol)
    d = random_direction(mesh, rng, scale=0.3)
    ut = directional_derivative(q, d, sol, cone)
    ts = np.array([1e-2, 1e-3, 1e-4])
    errs = [quotient_error(q, d, t, f, sol, ut, psi=1e6) for t in ts]
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 0.9


def test_positive_homogeneity_fixed_cone():
    mesh, f, q, sol = example_setup()
    cone = build_critical_cone(sol)
    rng = np.random.default_rng(SEED)
    d = random_direction(mesh, rng, scale=0.1)
    u1 = directional_derivative(q, d, sol, cone)
    # powers of two scale the whole iteration exactly
    for s in (0.5, 2.0):
        us = directional_derivative(q, s * d, sol, cone)
        assert np.array_equal(us.values, s * u1.values)


def test_derivative_respects_cone_constraints():
    # d = -eps*q pushes the unconstrained derivative to +eps*u > 0, so the
    # cone constraints engage on every contact node
    mesh, f, q, sol = example_setup()
    assert np.all(sol.u.values[mesh.interior_mask] > 0.0)
    cone = build_critical_cone(sol)
    d = -0.3 * q
    ut = directional_derivative(q, d, sol, cone)
    assert np.all(ut.values[cone.zero_nodes] == 0.0)
    assert np.all(ut.values[mesh.boundary_mask] == 0.0)
    load = direction_load(d, sol.u)
    lam_t = _derivative_multiplier(q, load, ut)
    assert lam_t.values[cone.zero_nodes].min() > 0.0

    # reclassify the contact nodes as biactive: the sign constraint alone
    # must hold the derivative down where it wants to rise
    sign_cone = CriticalCone(
        zero_nodes=np.zeros(mesh.n_nodes, dtype=bool),
        nonpositive_nodes=cone.zero_nodes | cone.nonpositive_nodes,
        free_nodes=cone.free_nodes)
    us = directional_derivative(q, d, sol, sign_cone)
    assert np.all(us.values[sign_cone.nonpositive_nodes] <= 1e-12)
    lam_s = _derivative_multiplier(q, load, us)
    assert lam_s.values[sign_cone.nonpositive_nodes].max() > 0.0
    feas, polar, comp = derivative_complementarity_check(
        us, sign_cone, q, load)
    assert feas <= 1e-8
    assert polar <= 1e-8
    assert comp <= 1e-8


def test_complementarity_residuals_converged_solve():
    mesh, f, q, sol = example_setup()
    cone = build_critical_cone(sol)
    rng = np.random.default_rng(SEED + 1)
    for _ in range(2):
        d = random_direction(mesh, rng, scale=0.1)
        ut = directional_derivative(q, d, sol, cone)
        feas, polar, comp = derivative_complementarity_check(
            ut, cone, q, direction_load(d, sol.u))
        assert feas <= 1e-8
        assert polar <= 1e-8
        assert comp <= 1e-8


def test_complementarity_multiplier_vanishes_without_contact():
    mesh = build_mesh(3)
    f = assemble_load(mesh, manufactured_load)
    rng = np.random.default_rng(SEED)
    q = random_admissible(mesh, rng)
    sol = solve_vi(q, f, 1e6)
    cone = build_critical_cone(sol)
    d = random_direction(mesh, rng, scale=0.3)
    ut = directional_derivative(q, d, sol, cone)
    load = direction_load(d, sol.u)
    lam_t = _derivative_multiplier(q, load, ut)
    # cone is the whole space, so the multiplier is pure solver residual
    assert np.abs(lam_t.values).max() <= 1e-8
    feas, polar, comp = derivative_complementarity_check(
        ut, cone, q, load)
    assert feas == 0.0
    assert polar <= 1e-8
    assert comp <= 1e-8


def test_hand_multiplier_single_interior_node():
    # level 1: one interior node at the origin, h = 1. Unit coefficient
    # gives K_cc = 8/3 and unit lumped mass; constant load 10 assembles to
    # F_c = 10, so the unconstrained value 3.75 hits the obstacle 0.5 and
    # lambda = 10 - (8/3)*0.5 = 26/3. For d = delta*I the derivative is
    # pinned to zero and its multiplier is -delta*K_cc*psi = -4/15.
    mesh = build_mesh(1)
    center = np.flatnonzero(mesh.interior_mask)
    assert center.size == 1
    c = center[0]
    q = MatrixControlField.constant(mesh, np.eye(2))
    f = assemble_load(mesh, lambda x, y: 10.0 + 0.0 * x)
    assert np.isclose(f.values[c], 10.0, rtol=1e-14)
    sol = solve_vi(q, f, PSI)
    assert sol.u.values[c] == PSI
    assert np.isclose(sol.lam.values[c], 26.0 / 3.0, rtol=1e-12)
    cone = build_critical_cone(sol)
    assert cone.zero_nodes[c] and not cone.nonpositive_nodes.any()

    delta = 0.2
    d = MatrixControlField.constant(mesh, delta * np.eye(2))
    ut = directional_derivative(q, d, sol, cone)
    assert np.array_equal(ut.values, np.zeros(mesh.n_nodes))
    load = direction_load(d, sol.u)
    lam_t = _derivative_multiplier(q, load, ut)
    assert np.isclose(lam_t.values[c], -4.0 / 15.0, rtol=1e-12)
    feas, polar, comp = derivative_complementarity_check(
        ut, cone, q, load)
    assert feas == 0.0 and polar == 0.0 and comp == 0.0


@pytest.mark.parametrize("entries", [1, 80])
def test_derivative_refuses_a_load_of_another_length(entries):
    """At level 3 (81 nodes) a one-entry load would broadcast onto every
    node and an 80-entry one fail inside numpy: the cone derivative and
    its check both refuse them as operands of the wrong shape."""
    mesh, f, q, sol = example_setup()
    cone = build_critical_cone(sol)
    load = np.ones(entries)
    with pytest.raises(DimensionError, match="one entry per node"):
        cone_derivative(q, load, cone)
    with pytest.raises(DimensionError, match="one entry per node"):
        derivative_complementarity_check(
            ScalarField(mesh, np.zeros(mesh.n_nodes)), cone, q, load)


def test_derivative_refuses_a_cone_of_another_mesh():
    """A critical cone built on a level-4 solution would index the
    level-3 arrays out of bounds: both functions refuse it."""
    mesh, f, q, sol = example_setup()
    fine_cone = build_critical_cone(example_setup(level=4)[3])
    load = np.zeros(mesh.n_nodes)
    with pytest.raises(DimensionError, match="one entry per node"):
        cone_derivative(q, load, fine_cone)
    with pytest.raises(DimensionError, match="one entry per node"):
        derivative_complementarity_check(
            ScalarField(mesh, np.zeros(mesh.n_nodes)), fine_cone, q, load)


def test_primal_check_zero_at_self():
    mesh, f, q, sol = example_setup()
    cfg = example_config(mesh)
    assert primal_first_order_check(q, [q], cfg, sol) == 0.0


def test_primal_check_certifies_optimum():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    res = solve_vi_constrained(q0, cfg, PSI)
    assert res.converged
    sol = solve_vi(res.q, cfg.f_load, PSI)
    rng = np.random.default_rng(SEED)
    cands = [random_admissible(mesh, rng) for _ in range(20)]
    val = primal_first_order_check(res.q, cands, cfg, sol)
    scale = 1.0 + max(control_norm(c - res.q) for c in cands)
    assert val >= -1e-6 * scale


def test_primal_check_descends_at_start():
    mesh = build_mesh(3)
    cfg = example_config(mesh)
    q0 = MatrixControlField.constant(mesh, Q_INIT)
    sol = solve_vi(q0, cfg.f_load, PSI)
    rng = np.random.default_rng(SEED)
    cands = [random_admissible(mesh, rng) for _ in range(12)] + [cfg.q_d]
    assert primal_first_order_check(q0, cands, cfg, sol) < 0.0


def test_run_sensitivity_assembles_each_direction_once(monkeypatch,
                                                       tmp_path):
    """The derivative solve and its complementarity check share each
    direction's load: three directions, three assemblies."""
    directions = []
    assemble = sensitivity.assemble_stiffness

    def counted(mesh, d):
        directions.append(d)
        return assemble(mesh, d)

    monkeypatch.setattr(sensitivity, "assemble_stiffness", counted)
    report = run_sensitivity(
        load_config(None, [], output_dir=str(tmp_path), level=3))
    assert report.passed
    assert len(directions) == 3
