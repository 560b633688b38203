"""Example problem data: loads, targets, and objective builders.

The benchmark problem lives on (-1,1)^2 with a constant obstacle. Target
state and coefficient are chosen so that without the obstacle the pair
(q_d, u_d) satisfies the state equation exactly:

    u_d = (1-x^2)(1-y^2),  q_d = diag(1+x^2, 1),
    f = -div(q_d grad u_d) = (1-y^2)(6x^2+2) + 2(1-x^2).

The obstacle psi = 0.5 cuts into u_d (max 1), so the constrained problem
develops a genuine contact region.
"""

from __future__ import annotations

import numpy as np

from .control import MatrixControlField
from .fem import StructuredMesh, assemble_load, interpolate
from .optimize import ObjectiveConfig


def load_density(x, y):
    """Source term matching the unconstrained target pair exactly."""
    return (1.0 - y * y) * (6.0 * x * x + 2.0) + 2.0 * (1.0 - x * x)


def target_state(x, y):
    """Desired state, a bubble with unit peak at the origin."""
    return (1.0 - x * x) * (1.0 - y * y)


def target_coefficient(x, _y):
    """Desired coefficient components (q11, q22, q12) = (1+x^2, 1, 0)."""
    return 1.0 + x * x, np.ones_like(x), np.zeros_like(x)


# the benchmark's weights, bounds and starting control (q11, q12, q22),
# eigenvalues 1 and 3: the defaults here and of ExperimentConfig
ALPHA, BETA, Q_MIN, Q_MAX = 0.1, 1e-4, 0.5, 10.0
Q_INIT = (2.0, -1.0, 2.0)


def initial_control(mesh: StructuredMesh,
                    q_init=Q_INIT) -> MatrixControlField:
    q11, q12, q22 = (float(v) for v in q_init)
    return MatrixControlField.constant(mesh,
                                       np.array([[q11, q12], [q12, q22]]))


def example_objective(mesh: StructuredMesh, alpha: float = ALPHA,
                      beta: float = BETA, q_min: float = Q_MIN,
                      q_max: float = Q_MAX) -> ObjectiveConfig:
    """Objective data of the benchmark on a given mesh."""
    return ObjectiveConfig(
        alpha=alpha, beta=beta,
        u_d=interpolate(mesh, target_state),
        q_d=MatrixControlField.from_function(mesh, target_coefficient),
        q_min=q_min, q_max=q_max,
        f_load=assemble_load(mesh, load_density))
