"""Obstacle variational inequality via primal-dual active sets.

Solves, for a fixed admissible coefficient q, the discrete complementarity
system: K_q u + mu = f, u <= psi, mu >= 0, mu'(u - psi) = 0, where the
multiplier gets a nodal representation lambda_i = mu_i / m_i through the
lumped mass. The iteration is the semismooth Newton method on
lambda - max(0, lambda + c (u - psi)) = 0 for any c > 0: guess an active
set, impose u = psi there, recover lambda from the lumped residual,
reclassify. Within the loop lambda = 0 off the active set and u = psi on
it, so the reclassification keeps an active node while lambda > 0 and
adds an inactive one where u > psi, whatever c is.

A cold solve (no active set given) on a mesh finer than the multigrid's
coarsest grid starts from nested iteration: it solves the same problem one
level down, recursively. A fine node starts active only when every coarse
node its bilinear interpolant draws on is active, and the first sweep's CG
starts from the prolonged coarse state. Semismooth Newton converges fast
from near the final active set, so the sweep count of each level stays
flat under refinement; at the coarsest grid and below a cold solve starts
from the empty set and the zero state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import MatrixControlField
from .errors import DimensionError, NonconvergenceError, NonFiniteError
from .fem import COARSEST_LEVEL, GridSystem, ScalarField, same_mesh
from .linsolve import solve_spd

# an active node is strongly active when its multiplier exceeds this
# fraction of the load's lumped L2 norm
_ACTIVE_TOL = 1e-8
# sweep cap of every PDAS loop
_MAX_ITERS = 100


@dataclass(frozen=True)
class VISolution:
    """Converged state, nodal multiplier, and active-set partition.

    strongly_active holds the active nodes whose multiplier exceeds
    _ACTIVE_TOL times f_norm, the lumped L2 norm of the load density; the
    VI adjoint pins them and the critical cone fixes the derivative there.
    system is the last sweep's `K.pin(active_set)` with its multigrid set
    up, which the VI adjoint solves again when no active node is biactive.
    """

    u: ScalarField
    lam: ScalarField
    active_set: np.ndarray
    strongly_active: np.ndarray
    iterations: int
    f_norm: float
    system: GridSystem


def pdas_bound_solve(K: GridSystem, rhs: np.ndarray, upper: np.ndarray,
                     active0: Optional[np.ndarray] = None,
                     u0: Optional[np.ndarray] = None):
    """Primal-dual active set loop for min 1/2 u'Ku - rhs'u, u <= upper.

    The nodes K pins are held at zero throughout (Dirichlet nodes and,
    for cone problems, strongly-active nodes); each sweep solves K pinned
    at its active nodes too. The upper bound applies wherever `upper` is
    finite; +inf entries are unconstrained, and a NaN or -inf entry raises
    NonFiniteError before any solve. rhs, upper and active0 have
    one entry per node of K's mesh, else DimensionError; the multiplier
    is lumped with that mesh's mass. The loop starts from the active set
    `active0` (default empty) and the first sweep's CG from `u0` (default
    zero); each later sweep's CG starts from the state of the one before.
    Returns (u, lam, active, iterations, system): lam the lumped
    multiplier, on the final active set, and system the last sweep's
    K.pin(active), with its set-up.
    """
    n = K.mesh.n_nodes
    if np.shape(rhs) != (n,) or np.shape(upper) != (n,):
        raise DimensionError("rhs and upper must have one entry per node")
    # written so that NaN fails it
    if not np.all(np.asarray(upper) > -np.inf):
        raise NonFiniteError("upper bound has a NaN or -inf entry")
    constrained = np.isfinite(upper) & ~K.dirichlet_mask
    active = np.zeros(n, dtype=bool)
    if active0 is not None:
        if np.shape(active0) != (n,):
            raise DimensionError("active0 must have one entry per node")
        active = active0 & constrained
    seen = {active.tobytes()}
    u = np.zeros(n) if u0 is None else u0
    m_lump = K.mesh.lumped_mass
    for it in range(1, _MAX_ITERS + 1):
        u_fix = np.where(active, upper, 0.0)
        # the free part solves the system pinned at the active nodes too,
        # where it is zero and u_fix (zero elsewhere) holds the values;
        # rebinding frees the last sweep's set-up before this one's
        system = K.pin(active)
        v, _ = solve_spd(system, rhs - K @ u_fix, x0=u)
        u = v + u_fix
        lam = np.zeros(n)
        resid = rhs - K @ u
        lam[active] = resid[active] / m_lump[active]
        new_active = constrained & np.where(active, lam > 0.0, u > upper)
        if np.array_equal(new_active, active):
            return u, lam, active, it, system
        key = new_active.tobytes()
        if key in seen:
            raise NonconvergenceError(
                f"active-set iteration cycled after {it} iterations",
                active_sets=(active.copy(), new_active.copy()))
        seen.add(key)
        active = new_active
    raise NonconvergenceError(
        f"active set did not stabilize within {_MAX_ITERS} iterations",
        active_sets=(active.copy(), new_active.copy()))


def _load_density_norm(f_load: ScalarField, m_lump: np.ndarray) -> float:
    """Lumped L2 norm of the nodal density represented by a load vector."""
    dens = f_load.values / m_lump
    return float(np.sqrt(np.sum(m_lump * dens * dens)))


def _nested_start(q: MatrixControlField, f_load: ScalarField,
                  psi: float) -> tuple[np.ndarray, np.ndarray]:
    """Cold-start active set and state from the same problem one level down.

    The coarse problem lives on the mesh's `coarse` mesh, which the
    multigrid hierarchy shares: its coefficient is q at the even nodes
    (injection) and its load is P' f (`mesh.restrict`), the coarse load
    vector of the same density. A fine node starts active when P
    (`mesh.prolong`) maps the 0/1 vector of the coarse active set to
    exactly 1 there, that is when every coarse node its interpolant draws
    on is active; the weights 1, 1/2 and 1/4 sum to 1 exactly in floating
    point. (Prolonging lambda would spread it past the contact edge and
    start nodes active that are not.) A boundary node draws on a coarse
    boundary node, which is never active. The start state is P u_c, zero
    on the boundary because u_c is.
    """
    mesh = f_load.mesh
    n1 = mesh.cells_per_side + 1
    q_c = MatrixControlField(
        mesh.coarse, q.comps.reshape(n1, n1, 3)[::2, ::2].reshape(-1, 3))
    sol = solve_vi(q_c, ScalarField(mesh.coarse, mesh.restrict(f_load.values)),
                   psi)
    return (mesh.prolong(sol.active_set.astype(float)) == 1.0,
            mesh.prolong(sol.u.values))


def solve_vi(q: MatrixControlField, f_load: ScalarField, psi: float,
             active0: Optional[np.ndarray] = None) -> VISolution:
    """Solve the obstacle problem (q grad u, grad(v-u)) >= (f, v-u).

    Parameters
    ----------
    q : MatrixControlField
        Admissible coefficient on the mesh of f_load; the solve uses its
        cached stiffness `q.stiffness`, which checks positive
        definiteness at the nodes.
    f_load : ScalarField
        Assembled load vector.
    psi : float
        Constant obstacle, required positive.
    active0 : ndarray of bool, optional
        Warm-start active set, one entry per node (else DimensionError);
        the first sweep then starts from the zero state. Without it, a mesh
        finer than the multigrid's coarsest grid (level >
        fem.COARSEST_LEVEL) starts from the active set and state of the
        solution one level down: a recursive solve_vi call per level.

    Returns
    -------
    VISolution
        Its `iterations` counts the PDAS sweeps on this mesh only; each
        coarse solve of a nested start is its own solve_vi call, with its
        own sweeps.
    """
    if not psi > 0.0:
        raise ValueError("obstacle psi must be positive")
    mesh = same_mesh(q, f_load)
    K = q.stiffness
    u0 = None
    if active0 is None and mesh.level > COARSEST_LEVEL:
        active0, u0 = _nested_start(q, f_load, psi)
    upper = np.full(mesh.n_nodes, psi)
    u, lam, active, its, system = pdas_bound_solve(
        K, f_load.values, upper, active0, u0)
    f_norm = _load_density_norm(f_load, mesh.lumped_mass)
    strong = active & (lam > _ACTIVE_TOL * max(f_norm, 1e-300))
    return VISolution(ScalarField(mesh, u), ScalarField(mesh, lam),
                      active, strong, its, f_norm, system)


def complementarity_residuals(sol: VISolution,
                              psi: float) -> tuple[float, float, float]:
    """Max violations of u <= psi, lambda >= 0, and lumped orthogonality."""
    u = sol.u.values
    lam = sol.lam.values
    m = sol.u.mesh.lumped_mass
    feas_u = float(np.maximum(u - psi, 0.0).max())
    feas_lambda = float(np.maximum(-lam, 0.0).max())
    comp = float(abs(np.sum(lam * m * (u - psi))))
    return feas_u, feas_lambda, comp
