"""Shared helpers: random admissible control fields and directions.

BLAS runs on one thread in the tests: on their small meshes extra threads
only synchronize, and on a machine whose cores are busy they slow the
suite down severalfold. The variables must be set before numpy is first
imported.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from obstacle_control import MatrixControlField  # noqa: E402

Q_MIN = 0.5
Q_MAX = 10.0


def random_admissible(mesh, rng, q_min=Q_MIN, q_max=Q_MAX, margin=0.05):
    """Random control with per-node eigenvalues strictly inside the bounds."""
    lo = q_min + margin * (q_max - q_min)
    hi = q_max - margin * (q_max - q_min)
    lam1 = rng.uniform(lo, hi, mesh.n_nodes)
    lam2 = rng.uniform(lo, hi, mesh.n_nodes)
    th = rng.uniform(0.0, np.pi, mesh.n_nodes)
    c, s = np.cos(th), np.sin(th)
    comps = np.column_stack([
        lam1 * c * c + lam2 * s * s,
        lam1 * s * s + lam2 * c * c,
        (lam1 - lam2) * c * s,
    ])
    return MatrixControlField(mesh, comps)


def random_direction(mesh, rng, scale=1.0):
    """Random symmetric nodal direction field with O(scale) entries."""
    comps = rng.standard_normal((mesh.n_nodes, 3)) * scale
    return MatrixControlField(mesh, comps)
