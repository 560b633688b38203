"""Acceptance gate: the ten headline guarantees, one test per criterion.

Run with -v to get one pass/fail line per criterion. Every tolerance is
pinned here, independent of the module tests. The level-7 spot check is
marked slow; deselect with -m "not slow" when minutes matter.
"""

import time

import numpy as np
import pytest

from obstacle_control import (
    PenaltyConfig,
    ScalarField,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    check_admissible,
    complementarity_residuals,
    control_inner,
    example_objective,
    initial_control,
    l2_norm,
    load_config,
    objective_value,
    reduced_gradient,
    run_convergence,
    run_example1,
    run_example2,
    run_gradcheck,
    solve_adjoint,
    solve_penalized,
    solve_vi,
)
from obstacle_control.experiments import _warn_multiplier
from obstacle_control.sensitivity import build_critical_cone, \
    directional_derivative

from conftest import oracle_active_set_enumeration, random_admissible, \
    random_direction

SEED = 90210
FACTOR = 5.0

# reference continuation errors at level 5, one row per gamma decade triple
TABLE_GAMMAS = (1e0, 1e3, 1e6, 1e9, 1e12)
TABLE_ERR_U = (3.79579e-1, 1.41644e-1, 1.59084e-2, 1.6923e-3, 2.0242e-4)
TABLE_ERR_Q = (1.8927e-1, 6.47868e-2, 7.76552e-3, 3.57287e-3, 4.39335e-4)
LEVEL7_ERR_U = 1.81648e-4


@pytest.fixture(scope="module")
def example1_level5(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_example1")
    cfg = load_config(None, [], output_dir=str(out), level=5)
    return run_example1(cfg)


@pytest.fixture(scope="module")
def example2_level5(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance_example2")
    cfg = load_config(None, [], output_dir=str(out), level=5)
    return run_example2(cfg)


def test_01_gamma_table_level5_within_factor_five(example2_level5):
    """Continuation errors at level 5 match the reference table rows
    within a factor of five, with err_u strictly decreasing."""
    rows = example2_level5.table.rows
    assert tuple(r[0] for r in rows) == TABLE_GAMMAS
    err_u = [r[1] for r in rows]
    err_q = [r[2] for r in rows]
    assert all(b < a for a, b in zip(err_u, err_u[1:]))
    worst = 0.0
    for got, want in zip(err_u, TABLE_ERR_U):
        factor = max(got / want, want / got)
        worst = max(worst, factor)
        assert factor <= FACTOR, f"err_u {got:.4e} vs {want:.4e}"
    for got, want in zip(err_q, TABLE_ERR_Q):
        factor = max(got / want, want / got)
        worst = max(worst, factor)
        assert factor <= FACTOR, f"err_q {got:.4e} vs {want:.4e}"
    print(f"criterion 1: PASS, worst table factor {worst:.2f}")


@pytest.mark.slow
def test_02_level7_spot_check_within_factor_five(tmp_path):
    """err_u of the gamma=1e12 leg at level 7 lands within a factor of
    five of the reference value, in under an hour."""
    t0 = time.time()
    cfg = load_config(None, ["gamma_list=1e12"], output_dir=str(tmp_path),
                      level=7)
    rep = run_example2(cfg)
    wall = time.time() - t0
    err_u = rep.table.rows[0][1]
    factor = max(err_u / LEVEL7_ERR_U, LEVEL7_ERR_U / err_u)
    assert factor <= FACTOR, f"err_u {err_u:.4e} vs {LEVEL7_ERR_U:.4e}"
    assert wall < 3600.0
    print(f"criterion 2: PASS, err_u {err_u:.4e} factor {factor:.2f}, "
          f"{wall:.0f}s")


def test_03_discretization_rate_at_least_1_9(tmp_path):
    """Manufactured-solution L2 rate across levels 3-5 without obstacle
    contact is at least 1.9 (the data identity itself is verified
    symbolically in test_manufactured_identity_symbolic)."""
    cfg = load_config(None, ["psi=1e6", "levels=3,4,5"],
                      output_dir=str(tmp_path))
    rep = run_convergence(cfg)
    assert rep.notes["contact"] is False
    rates = rep.notes["rates"]
    assert len(rates) == 2
    assert all(rate >= 1.9 for rate in rates)
    print(f"criterion 3: PASS, rates {[f'{r:.3f}' for r in rates]}")


def test_04_enumeration_oracle_five_instances():
    """solve_vi agrees with brute-force active-set enumeration to 1e-10
    nodal max on five random level-2 instances."""
    mesh = build_mesh(2)
    rng = np.random.default_rng(SEED)
    idx = np.nonzero(mesh.interior_mask)[0]
    worst = 0.0
    for trial in range(5):
        q = random_admissible(mesh, rng)
        f = ScalarField(mesh, rng.uniform(-5.0, 40.0, mesh.n_nodes))
        psi = rng.uniform(0.05, 0.5)
        sol = solve_vi(q, f, psi)
        K = assemble_stiffness(mesh, q)
        kd = mesh.csr(K.data).toarray()[np.ix_(idx, idx)]
        u_ref, _ = oracle_active_set_enumeration(kd, f.values[idx], psi)
        err = np.abs(sol.u.values[idx] - u_ref).max()
        worst = max(worst, err)
        assert err <= 1e-10, f"instance {trial}: {err:.2e}"
    print(f"criterion 4: PASS, worst nodal error {worst:.2e}")


def test_05_complementarity_certification():
    """Every converged VI solve satisfies u <= psi + 1e-10,
    lambda >= -1e-10, and lumped orthogonality below 1e-10 scaled by
    the load and obstacle size."""
    rng = np.random.default_rng(SEED + 5)
    cases = []
    mesh4 = build_mesh(4)
    obj = example_objective(mesh4)
    cases.append((solve_vi(initial_control(mesh4), obj.f_load, 0.5), 0.5))
    mesh3 = build_mesh(3)
    f3 = assemble_load(mesh3, lambda x, y: (1 - y * y) * (6 * x * x + 2)
                       + 2 * (1 - x * x))
    for _ in range(4):
        psi = rng.uniform(0.05, 0.6)
        cases.append((solve_vi(random_admissible(mesh3, rng), f3, psi),
                      psi))
    for sol, psi in cases:
        feas_u, feas_lam, comp = complementarity_residuals(sol, psi)
        assert feas_u <= 1e-10
        assert feas_lam <= 1e-10  # max(0, -lambda)
        assert comp <= 1e-10 * max(1.0, sol.f_norm) * psi
    print(f"criterion 5: PASS, {len(cases)} solves certified")


def test_06_adjoint_gradient_matches_fd():
    """Adjoint directional derivatives of the penalized objective agree
    with central differences to 1e-4 relative, three random controls at
    gamma=1e3 on level 3, five directions each."""
    mesh = build_mesh(3)
    obj = example_objective(mesh)
    pen = PenaltyConfig(gamma=1e3, psi=0.5)
    rng = np.random.default_rng(SEED + 6)
    h = 1e-5
    worst = 0.0
    for _ in range(3):
        q = random_admissible(mesh, rng)
        u = solve_penalized(q, obj.f_load, pen)
        p = solve_adjoint(q, u, obj.u_d, pen)
        g = reduced_gradient(q, u, p, obj)
        for _ in range(5):
            d = random_direction(mesh, rng, scale=0.1)
            dd_adj = control_inner(g, d)
            dd_fd = (objective_value(q + h * d, obj, pen)
                     - objective_value(q - h * d, obj, pen)) / (2 * h)
            rel = abs(dd_adj - dd_fd) / max(abs(dd_fd), 1e-300)
            worst = max(worst, rel)
            assert rel <= 1e-4
    print(f"criterion 6: PASS, worst relative error {worst:.2e}")


def test_07_directional_derivative_quotients():
    """VI difference quotients approach the cone derivative as t drops
    through 1e-2, 1e-3, 1e-4 on the benchmark contact problem, and show
    order >= 0.9 without contact."""
    mesh = build_mesh(3)
    obj = example_objective(mesh)
    q0 = initial_control(mesh)
    rng = np.random.default_rng(SEED + 7)
    ts = (1e-2, 1e-3, 1e-4)

    sol = solve_vi(q0, obj.f_load, 0.5)
    assert sol.active_set.any()
    cone = build_critical_cone(sol)
    for _ in range(3):
        d = random_direction(mesh, rng, scale=0.1)
        assert check_admissible(q0 + d, 0.5, 10.0).admissible
        ut = directional_derivative(q0, d, sol, cone)
        errs = []
        for t in ts:
            solt = solve_vi(q0 + t * d, obj.f_load, 0.5,
                            active0=sol.active_set)
            errs.append(l2_norm(ScalarField(
                mesh, (solt.u.values - sol.u.values) / t - ut.values)))
        assert errs[0] > errs[1] > errs[2]

    q = random_admissible(mesh, rng)
    free_sol = solve_vi(q, obj.f_load, 1e6)
    assert not free_sol.active_set.any()
    free_cone = build_critical_cone(free_sol)
    d = random_direction(mesh, rng, scale=0.3)
    ut = directional_derivative(q, d, free_sol, free_cone)
    errs = []
    for t in ts:
        solt = solve_vi(q + t * d, obj.f_load, 1e6)
        errs.append(l2_norm(ScalarField(
            mesh, (solt.u.values - free_sol.u.values) / t - ut.values)))
    slope = np.polyfit(np.log(ts), np.log(errs), 1)[0]
    assert slope >= 0.9
    print(f"criterion 7: PASS, no-contact order {slope:.3f}")


def test_08_barrier_feasibility_all_iterates(example1_level5,
                                             example2_level5):
    """No accepted iterate of the full example optimizations ever leaves
    the admissible cone: zero logged violations, every recorded margin
    strictly positive."""
    for entry in example1_level5.result.history:
        assert entry.feasibility_margin > 0.0
    assert example1_level5.notes["barrier_violations"] == 0
    for entry in example2_level5.result.history:
        assert entry.feasibility_margin > 0.0
    assert example2_level5.notes["barrier_violations"] == 0
    total = (len(example1_level5.result.history)
             + sum(leg["iterations"] + 1
                   for leg in example2_level5.notes["legs"])
             + len(example2_level5.result.history))
    print(f"criterion 8: PASS, {total} iterates audited, 0 violations")


def test_09_multiplier_ratio_diagnostic(example1_level5):
    """The converged multiplier ratio is reported and sits below 4.5 on
    the benchmark; exceeding it warns without failing the run."""
    ratio = example1_level5.notes["multiplier_ratio"]
    assert example1_level5.passed
    assert ratio <= 4.5
    with pytest.warns(RuntimeWarning):
        assert _warn_multiplier(5.0) is True
    print(f"criterion 9: PASS, ratio {ratio:.3f}")


def test_10_determinism_byte_identical_csv(tmp_path):
    """Re-running an experiment with the same config and seed reproduces
    the CSV outputs byte for byte."""
    payloads = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        cfg = load_config(None, ["gamma_list=1e0,1e3"],
                          output_dir=str(out), level=3, seed=13)
        run_example2(cfg)
        run_gradcheck(cfg)
        payloads.append(tuple(
            (out / name).read_bytes()
            for name in ("example2/table.csv", "gradcheck/adjoint_fd.csv",
                         "gradcheck/quotients.csv")))
    assert payloads[0] == payloads[1]
    print("criterion 10: PASS, 3 CSV artifacts byte-identical")
