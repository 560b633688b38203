"""Penalized state equation and its adjoint.

The obstacle constraint is replaced by the monotone cubic penalty
gamma * max(u - psi, 0)^3 added to the elliptic operator. The resulting
semilinear equation is solved by a damped Newton method; since the penalty
term is C^2, the residual and the Jacobian weighted-mass term are assembled
from the same quadrature-point evaluations and Newton is exact. Both sum
the contact cells alone: every other cell's gap is exactly zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .control import MatrixControlField
from .errors import NewtonError
from .fem import GridSystem, ScalarField, same_mesh
from .linsolve import solve_spd
from .obstacle import solve_vi

# the damped Newton step fails below this step length
_STEP_MIN = 2.0 ** -20
# Newton steps per solve, and the residual target relative to the load
_NEWTON_MAX = 60
_NEWTON_TOL = 1e-11
# a corner above psi less this many ulps puts its cell in contact: a Gauss
# value rounds to at most 5 eps above its largest corner; 16 ulps >= 8 eps
_ULPS = 16


@dataclass(frozen=True)
class PenaltyConfig:
    gamma: float
    psi: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.gamma < np.inf:
            raise ValueError("gamma must be finite and nonnegative")
        if not self.psi > 0.0:
            raise ValueError("obstacle psi must be positive")


def _contact(mesh, u_vals: np.ndarray, psi: float):
    """The cells with a corner above psi less _ULPS ulps, ascending, and
    max(u - psi, 0) at their 2x2 Gauss points, (k, 4)."""
    n1 = mesh.cells_per_side + 1
    above = u_vals.reshape(n1, n1) > psi - _ULPS * abs(np.spacing(psi))
    cells = np.flatnonzero(above[:-1, :-1] | above[:-1, 1:]
                           | above[1:, :-1] | above[1:, 1:])
    return cells, np.maximum(mesh.at_quadrature(u_vals, cells) - psi, 0.0)


def _penalty_vector(mesh, cells, gap, gamma: float) -> np.ndarray:
    """Assembled gamma*max(u-psi,0)^3 against test functions, boundary rows
    zero, from the contact cells and their gap."""
    vec = mesh.integrate(gamma * gap ** 3, cells)
    vec[mesh.boundary_mask] = 0.0
    return vec


def _penalty_jacobian(mesh, cells, gap, gamma: float) -> np.ndarray:
    """Stencil data of the weighted mass from 3*gamma*max(u-psi,0)^2 on
    the contact cells, without boundary elimination."""
    return mesh.mass_data(3.0 * gamma * gap ** 2, cells)


def _newton(K: GridSystem, rhs: np.ndarray, cfg: PenaltyConfig,
            u0: np.ndarray) -> np.ndarray:
    mesh = K.mesh
    f_scale = max(float(np.linalg.norm(rhs)), 1e-300)
    u = np.where(mesh.boundary_mask, 0.0, u0)
    contact = _contact(mesh, u, cfg.psi)
    res = K @ u + _penalty_vector(mesh, *contact, cfg.gamma) - rhs
    res_norm = float(np.linalg.norm(res))
    history = [res_norm]
    for _ in range(_NEWTON_MAX):
        if res_norm <= _NEWTON_TOL * f_scale:
            return u
        system = K.plus(_penalty_jacobian(mesh, *contact, cfg.gamma))
        delta, _ = solve_spd(system, -res)
        step = 1.0
        while True:
            trial = u + step * delta
            contact_t = _contact(mesh, trial, cfg.psi)
            res_t = K @ trial + _penalty_vector(mesh, *contact_t, cfg.gamma) \
                - rhs
            norm_t = float(np.linalg.norm(res_t))
            if norm_t <= (1.0 - 1e-4 * step) * res_norm:
                break
            step *= 0.5
            if step < _STEP_MIN:
                raise NewtonError(
                    "Newton line search hit the step floor", history)
        u, contact, res, res_norm = trial, contact_t, res_t, norm_t
        history.append(res_norm)
    if res_norm <= _NEWTON_TOL * f_scale:
        return u
    raise NewtonError(
        f"Newton did not converge in {_NEWTON_MAX} iterations "
        f"(residual {res_norm:.3e})", history)


def solve_penalized(q: MatrixControlField, f_load: ScalarField,
                    cfg: PenaltyConfig,
                    u0: Optional[ScalarField] = None) -> ScalarField:
    """Solve K_q u + gamma*max(u-psi,0)^3 = f by damped Newton.

    A cold start (no u0) begins Newton at the obstacle solution for the
    same coefficient, `solve_vi(q, f_load, cfg.psi).u`, the limit of the
    penalized states as gamma grows. That solve's nested active-set start
    keeps its sweep count flat under refinement, and so does Newton's step
    count from there, at a large gamma as at a small one. At gamma = 0 the
    penalty term and its Jacobian vanish, and Newton solves the linear
    equation.

    Parameters
    ----------
    q : MatrixControlField
        Coefficient on the mesh of f_load, with K_q = q.stiffness.
    f_load : ScalarField
    cfg : PenaltyConfig
    u0 : ScalarField, optional
        Warm start: `gamma_continuation` passes the previous gamma's.
    """
    mesh = same_mesh(q, f_load, u0)
    rhs = np.where(mesh.boundary_mask, 0.0, f_load.values)
    u = solve_vi(q, f_load, cfg.psi).u if u0 is None else u0
    return ScalarField(mesh, _newton(q.stiffness, rhs, cfg, u.values))


def solve_adjoint(q: MatrixControlField, u: ScalarField, u_d: ScalarField,
                  cfg: PenaltyConfig) -> ScalarField:
    """Solve (K_q + D_gamma(u)) p = M (u - u_d) for the adjoint state.

    K_q = q.stiffness with q on the mesh of u; D_gamma is the weighted mass
    from the penalty derivative 3*gamma*max(u-psi,0)^2, evaluated at the
    same quadrature points as the state residual.
    """
    mesh = same_mesh(q, u, u_d)
    contact = _contact(mesh, u.values, cfg.psi)
    system = q.stiffness.plus(_penalty_jacobian(mesh, *contact, cfg.gamma))
    rhs = mesh.mass_matrix @ (u.values - u_d.values)
    p, _ = solve_spd(system, rhs)
    return ScalarField(mesh, p)


def penalty_residual_as_multiplier(u: ScalarField,
                                   cfg: PenaltyConfig) -> ScalarField:
    """Lumped nodal representation of gamma*max(u-psi,0)^3."""
    mesh = u.mesh
    vec = _penalty_vector(mesh, *_contact(mesh, u.values, cfg.psi),
                          cfg.gamma)
    return ScalarField(mesh, vec / mesh.lumped_mass)
