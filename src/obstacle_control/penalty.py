"""Penalized state equation and its adjoint.

The obstacle constraint is replaced by the monotone cubic penalty
gamma * max(u - psi, 0)^3 added to the elliptic operator. The resulting
semilinear equation is solved by a damped Newton method; since the penalty
term is C^2, the residual and the Jacobian weighted-mass term are assembled
from the same quadrature-point evaluations and Newton is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .control import MatrixControlField
from .errors import DimensionError, NewtonError
from .fem import GridSystem, ScalarField
from .linsolve import solve_spd

# cold starts at gamma above this run an internal continuation first
_WARMUP_THRESHOLD = 1e6
_WARMUP_FACTOR = 1e2
# the damped Newton step fails below this step length
_STEP_MIN = 2.0 ** -20
# Newton steps per solve, and the residual target relative to the load
_NEWTON_MAX = 60
_NEWTON_TOL = 1e-11


@dataclass(frozen=True)
class PenaltyConfig:
    gamma: float
    psi: float = 0.5

    def __post_init__(self):
        if not self.gamma >= 0.0:
            raise ValueError("gamma must be nonnegative")


def _gap_at_quadrature(mesh, u_vals: np.ndarray, psi: float) -> np.ndarray:
    """max(u - psi, 0) at the 2x2 Gauss points of every cell; (C, 4)."""
    return np.maximum(mesh.at_quadrature(u_vals) - psi, 0.0)


def _penalty_vector(mesh, gap: np.ndarray, gamma: float) -> np.ndarray:
    """Assembled gamma*max(u-psi,0)^3 against test functions, boundary rows zero."""
    vec = mesh.integrate(gamma * gap ** 3)
    vec[mesh.boundary_mask] = 0.0
    return vec


def _penalty_jacobian(mesh, gap: np.ndarray, gamma: float) -> np.ndarray:
    """Stencil data of the weighted mass from 3*gamma*max(u-psi,0)^2,
    without boundary elimination."""
    return mesh.weighted_mass(3.0 * gamma * gap ** 2)


def _newton(mesh, K: GridSystem, rhs: np.ndarray, cfg: PenaltyConfig,
            u0: np.ndarray) -> np.ndarray:
    f_scale = max(float(np.linalg.norm(rhs)), 1e-300)
    u = np.where(mesh.boundary_mask, 0.0, u0)
    gap = _gap_at_quadrature(mesh, u, cfg.psi)
    res = K @ u + _penalty_vector(mesh, gap, cfg.gamma) - rhs
    res_norm = float(np.linalg.norm(res))
    history = [res_norm]
    for _ in range(_NEWTON_MAX):
        if res_norm <= _NEWTON_TOL * f_scale:
            return u
        system = K.plus(_penalty_jacobian(mesh, gap, cfg.gamma))
        delta, _ = solve_spd(system, -res)
        step = 1.0
        while True:
            trial = u + step * delta
            gap_t = _gap_at_quadrature(mesh, trial, cfg.psi)
            res_t = K @ trial + _penalty_vector(mesh, gap_t, cfg.gamma) - rhs
            norm_t = float(np.linalg.norm(res_t))
            if norm_t <= (1.0 - 1e-4 * step) * res_norm:
                break
            step *= 0.5
            if step < _STEP_MIN:
                raise NewtonError(
                    "Newton line search hit the step floor", history)
        u, gap, res, res_norm = trial, gap_t, res_t, norm_t
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

    A cold start at large gamma first walks an internal geometric
    continuation (decades below gamma) so the final Newton leg starts close;
    passing u0 skips the warm-up entirely. At gamma = 0 the penalty term
    and its Jacobian vanish, and Newton solves the linear equation.

    Parameters
    ----------
    q : MatrixControlField
        Coefficient on the mesh of f_load, with K_q = q.stiffness.
    f_load : ScalarField
    cfg : PenaltyConfig
    u0 : ScalarField, optional
        Warm start, typically the solution at the previous gamma.
    """
    mesh = f_load.mesh
    if q.mesh is not mesh:
        raise DimensionError("coefficient lives on a different mesh")
    K = q.stiffness
    rhs = np.where(mesh.boundary_mask, 0.0, f_load.values)
    if u0 is None:
        # a system of its own: its set-up dies with this solve, not with q
        u, _ = solve_spd(K.pin(mesh.boundary_mask), rhs)
        if cfg.gamma > _WARMUP_THRESHOLD:
            g = _WARMUP_THRESHOLD
            while g < cfg.gamma:
                u = _newton(mesh, K, rhs, replace(cfg, gamma=g), u)
                g *= _WARMUP_FACTOR
    else:
        u = u0.values.copy()
    return ScalarField(mesh, _newton(mesh, K, rhs, cfg, u))


def solve_adjoint(q: MatrixControlField, u: ScalarField, u_d: ScalarField,
                  cfg: PenaltyConfig) -> ScalarField:
    """Solve (K_q + D_gamma(u)) p = M (u - u_d) for the adjoint state.

    K_q = q.stiffness with q on the mesh of u; D_gamma is the weighted mass
    from the penalty derivative 3*gamma*max(u-psi,0)^2, evaluated at the
    same quadrature points as the state residual.
    """
    mesh = u.mesh
    if q.mesh is not mesh:
        raise DimensionError("coefficient lives on a different mesh")
    gap = _gap_at_quadrature(mesh, u.values, cfg.psi)
    system = q.stiffness.plus(_penalty_jacobian(mesh, gap, cfg.gamma))
    rhs = mesh.mass_matrix @ (u.values - u_d.values)
    p, _ = solve_spd(system, rhs)
    return ScalarField(mesh, p)


def penalty_residual_as_multiplier(u: ScalarField,
                                   cfg: PenaltyConfig) -> ScalarField:
    """Lumped nodal representation of gamma*max(u-psi,0)^3."""
    mesh = u.mesh
    gap = _gap_at_quadrature(mesh, u.values, cfg.psi)
    vec = _penalty_vector(mesh, gap, cfg.gamma)
    return ScalarField(mesh, vec / mesh.lumped_mass)
