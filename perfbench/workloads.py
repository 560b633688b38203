"""The benchmark's workloads: one public runner call each, plus the checks
that decide whether its outputs are right.

Every check returns a name -> bool mapping and the accuracy figures the
run record reports. A failed check marks the call failed and the run's
outputs incorrect.
"""

from __future__ import annotations

import ast
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Tuple

ACCEPTANCE_TESTS = Path(__file__).resolve().parents[1] / "tests" / \
    "test_acceptance.py"

# complementarity tolerance of the acceptance gate (criterion 5)
COMPLEMENTARITY_TOL = 1e-10

# L2 distance of the discrete VI solution (psi = 0.5, target coefficient)
# to the target state, by level, from the unmodified solver. Each solve
# runs to a 1e-12 PCG residual, so a solver that reaches the same
# discrete solution agrees far inside the tolerance below; the levels
# differ from each other by 5e-5 relative and more.
CONVERGENCE_ERROR_L2 = {3: 0.3982402810397322, 8: 0.3944384086427382}
CONVERGENCE_REL_TOL = 1e-6

Checked = Tuple[Dict[str, bool], Dict[str, float]]


def _check_example1(oc, cfg, report) -> Checked:
    notes = report.notes
    mesh = oc.build_mesh(cfg.level)
    f_load = oc.example_objective(mesh, cfg.alpha, cfg.beta, cfg.q_min,
                                  cfg.q_max).f_load
    m_lump = mesh.lumped_mass
    f_norm = math.sqrt(float((f_load.values ** 2 / m_lump).sum()))
    comp = notes["complementarity"]
    checks = {
        "converged": bool(notes["converged"]),
        "barrier_feasible": notes["barrier_violations"] == 0,
        "feas_u": comp["feas_u"] <= COMPLEMENTARITY_TOL,
        "feas_lambda": comp["feas_lambda"] <= COMPLEMENTARITY_TOL,
        "orthogonality": comp["orthogonality"]
        <= COMPLEMENTARITY_TOL * max(1.0, f_norm) * cfg.psi,
    }
    return checks, {"objective": report.result.value}


def _check_example2(oc, cfg, report) -> Checked:
    notes = report.notes
    table = reference_table()
    rows = report.table.rows
    err_u = [row[1] for row in rows]
    err_q = [row[2] for row in rows]
    factors = [max(got / want, want / got)
               for got, want in zip(err_u + err_q, table["TABLE_ERR_U"]
                                    + table["TABLE_ERR_Q"])]
    table_factor = max(factors)
    checks = {
        "converged": bool(notes["reference_converged"])
        and all(leg["converged"] for leg in notes["legs"]),
        "barrier_feasible": notes["barrier_violations"] == 0,
        "gammas": tuple(row[0] for row in rows) == table["TABLE_GAMMAS"],
        "err_u_decreasing": all(b < a for a, b in zip(err_u, err_u[1:])),
        "table_within_factor": table_factor <= table["FACTOR"],
    }
    quality = {
        "objective": report.result.value,
        "err_u_final": err_u[-1],
        "err_q_final": err_q[-1],
        "table_factor_max": table_factor,
    }
    return checks, quality


def _check_convergence(oc, cfg, report) -> Checked:
    notes = report.notes
    (level,) = cfg.levels
    (error,) = notes["errors"]
    checks = {
        "contact": notes["contact"] is True,
        "error_matches": level in CONVERGENCE_ERROR_L2
        and abs(error / CONVERGENCE_ERROR_L2[level] - 1.0)
        <= CONVERGENCE_REL_TOL,
    }
    return checks, {"error_l2": error}


@dataclass(frozen=True)
class Workload:
    """A runner at a fixed level and config; why each was chosen is in
    BENCHMARK.json and README.md."""

    name: str
    runner: str
    level: int
    overrides: Tuple[str, ...]
    check: Callable


WORKLOADS = {
    w.name: w for w in (
        Workload("example1-l5", "run_example1", 5, (), _check_example1),
        Workload("example2-l5", "run_example2", 5,
                 ("gamma_list=1e0,1e3,1e6,1e9,1e12",), _check_example2),
        Workload("convergence-l8", "run_convergence", 8, (),
                 _check_convergence),
    )
}


@functools.lru_cache(maxsize=None)
def reference_table() -> Dict[str, tuple]:
    """The level-5 continuation table and its factor, read from the
    acceptance tests that pin them (TABLE_GAMMAS, TABLE_ERR_U,
    TABLE_ERR_Q, FACTOR)."""
    names = {"TABLE_GAMMAS", "TABLE_ERR_U", "TABLE_ERR_Q", "FACTOR"}
    tree = ast.parse(ACCEPTANCE_TESTS.read_text())
    table = {node.targets[0].id: ast.literal_eval(node.value)
             for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in names}
    if set(table) != names:
        raise LookupError(f"{ACCEPTANCE_TESTS} pins {sorted(table)}, "
                          f"not {sorted(names)}")
    return table


def make_config(oc, workload: Workload, level: int, seed: int,
                output_dir: str):
    """The workload's config at the given level; the seed goes through
    the config's seed key (no runner here draws from it). Only
    run_convergence reads ``levels``; it solves on that one level."""
    return oc.load_config(None, list(workload.overrides), level=level,
                          levels=(level,), seed=seed, output_dir=output_dir)
