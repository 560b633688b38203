"""Projected-gradient minimization over matrix coefficient controls.

The reduced objective is

    J(q) = 1/2 ||u(q) - u_d||^2 + alpha/2 ||q - q_d||^2 + beta B(q),

where u(q) is produced either by the penalized state equation or by the
obstacle VI, and B is the logarithmic barrier of the spectral bounds. One
descent loop serves both state maps; they differ only in the state solve
and in the adjoint. The penalized adjoint solves (K + D(u)) p = M(u - u_d)
with D the penalty Jacobian. At an exact VI solution the state never
exceeds the obstacle, so D vanishes identically there and cannot carry the
contact information; the correct large-penalty limit pins p = 0 on the
strongly active set instead, which is what the VI path imposes.

The loop is the spectral projected gradient method: a Barzilai-Borwein
first trial step under a nonmonotone Armijo line search. An accepted
objective may exceed the current one, but lies below the maximum of the
last _MEMORY objective values by the sufficient-decrease term. Three exits
raise StagnationError instead of returning: the line search runs out of
backtracks, _MEMORY accepted steps in a row bring no new minimum, or the
residual test is met above the best accepted objective.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .control import (
    AdmissibilityReport,
    BarrierEval,
    MatrixControlField,
    barrier,
    check_admissible,
    control_inner,
    control_norm,
    project_spectral,
    riesz_lift,
)
from .errors import CoefficientError, StagnationError
from .fem import ScalarField, l2_norm
from .linsolve import solve_spd
from .obstacle import VISolution, solve_vi
from .penalty import (
    PenaltyConfig,
    penalty_residual_as_multiplier,
    solve_adjoint,
    solve_penalized,
)

# nonmonotone Armijo rule: accept J(q+) <= max of the last _MEMORY
# objective values - _SIGMA step ||g||^2, else multiply the step by
# _BACKTRACK; _MEMORY accepted steps in a row with no new minimum stall
_SIGMA = 1e-4
_BACKTRACK = 0.5
_MEMORY = 10
# first trial step of a run, and the clip of the Barzilai-Borwein first
# trial step <s,s>/<s,y> after it
_STEP_INIT = 1.0
_STEP_MIN = 1e-4
_STEP_MAX = 1e4
# backtracks per line search before it stalls
_MAX_BACKTRACKS = 40
# relative objective noise of the state solves: a run that meets the
# residual test more than this above its best accepted objective has a
# gradient that does not match the objective (correct runs end at most
# 5.1e-12 above it, a dropped barrier gradient 2.9e-8 and more)
_NOISE = 1e-10
# spectral margin of every projected trial control
_MARGIN = 1e-9
# step s of the projected-gradient residual ||q - P(q - s g)|| / s
_PG_STEP = 1e-4


@dataclass(frozen=True)
class ObjectiveConfig:
    """Data of the reduced tracking objective.

    alpha weights the control distance to q_d, beta the spectral barrier
    with bounds (q_min, q_max); u_d is the tracking target and f_load the
    assembled load driving the state equation.
    """

    alpha: float
    beta: float
    u_d: ScalarField
    q_d: MatrixControlField
    q_min: float
    q_max: float
    f_load: ScalarField

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")
        if not self.beta >= 0.0:
            raise ValueError("beta must be nonnegative")
        if not 0.0 < self.q_min < self.q_max:
            raise ValueError("need 0 < q_min < q_max")


@dataclass(frozen=True)
class LoopConfig:
    grad_tol_rel: float = 1e-8
    max_iters: int = 2000


@dataclass(frozen=True)
class OptIterate:
    """Per-iterate diagnostics of an accepted point.

    step and backtracks describe the move taken away from this point;
    the final point of a run carries step = 0. feasibility_margin is the
    minimum over nodes of the four determinant/trace admissibility tests,
    positive iff the iterate is strictly admissible.
    """

    iteration: int
    tracking: float
    tikhonov: float
    barrier_term: float
    objective: float
    grad_norm: float
    pg_residual: float
    step: float
    backtracks: int
    feasibility_margin: float


@dataclass(frozen=True)
class OptResult:
    """The returned iterate q with its state u, multiplier and the path's
    solution there (a VISolution on the VI path, the state u on the
    penalized path)."""

    q: MatrixControlField
    u: ScalarField
    multiplier: ScalarField
    solution: VISolution | ScalarField
    value: float
    pg_residual: float
    history: tuple
    converged: bool
    iterations: int


@dataclass(frozen=True)
class GammaLeg:
    """One leg of the penalty continuation, with distances to a reference."""

    gamma: float
    result: OptResult
    err_u: Optional[float]
    err_q: Optional[float]


def _tracking_gradient(mesh, u_vals: np.ndarray,
                       p_vals: np.ndarray) -> np.ndarray:
    """Gauss-point density of the tracking term's control gradient, whose
    derivative along d is -(d grad u, grad p); the off-diagonal component
    carries half its moment, as the control inner product counts it twice.
    """
    gu = mesh.gradients_at_quadrature(u_vals)
    gp = mesh.gradients_at_quadrature(p_vals)
    d12 = gu[:, :, 0] * gp[:, :, 1] + gu[:, :, 1] * gp[:, :, 0]
    return -np.stack((gu[:, :, 0] * gp[:, :, 0], gu[:, :, 1] * gp[:, :, 1],
                      0.5 * d12), axis=-1)


def reduced_gradient(q: MatrixControlField, u: ScalarField, p: ScalarField,
                     cfg: ObjectiveConfig,
                     bar: Optional[BarrierEval] = None) -> MatrixControlField:
    """Mass-weighted L2 gradient of the reduced objective at (q, u, p).

    alpha (q - q_d) plus one Riesz lift of the tracking density
    -sym(grad u x grad p) plus beta times the barrier density. It pairs
    with control_inner to give exact directional derivatives of the
    discrete objective. u and p must belong to q; `bar` is
    barrier(q, cfg.q_min, cfg.q_max) when the caller has it. Raises
    CoefficientError when q violates the spectral bounds.
    """
    if bar is None:
        bar = barrier(q, cfg.q_min, cfg.q_max)
    if bar.density is None:
        raise CoefficientError("control violates the spectral bounds; "
                               "barrier gradient undefined")
    density = _tracking_gradient(q.mesh, u.values, p.values) \
        + cfg.beta * bar.density
    comps = cfg.alpha * (q.comps - cfg.q_d.comps) \
        + riesz_lift(q.mesh, density)
    return MatrixControlField(q.mesh, comps)


@dataclass(frozen=True)
class _Point:
    """A control evaluated by _evaluate, with the path's solution sol."""

    q: MatrixControlField
    report: AdmissibilityReport
    bar: BarrierEval
    u: ScalarField
    sol: VISolution | ScalarField
    tracking: float
    tikhonov: float
    barrier_term: float
    value: float


def _evaluate(q: MatrixControlField, cfg: ObjectiveConfig, path,
              prev) -> Optional[_Point]:
    """The objective at q, with the state from path.state(q, prev); None,
    before any state solve, when q violates the spectral bounds. Serves
    the start of the descent, each of its trials and objective_value."""
    report = check_admissible(q, cfg.q_min, cfg.q_max)
    bar = barrier(q, cfg.q_min, cfg.q_max, report)
    if bar.density is None:
        return None
    u, sol = path.state(q, prev)
    track = 0.5 * l2_norm(u - cfg.u_d) ** 2
    tik = 0.5 * cfg.alpha * control_norm(q - cfg.q_d) ** 2
    # 0 times a negative barrier is -0.0: adding 0.0 gives beta = 0 a +0.0
    bar_term = cfg.beta * bar.value + 0.0
    return _Point(q, report, bar, u, sol, track, tik, bar_term,
                  track + tik + bar_term)


def objective_value(q: MatrixControlField, cfg: ObjectiveConfig,
                    pen: PenaltyConfig) -> float:
    """Reduced objective through the penalized state, for external checks;
    raises CoefficientError, at every beta, when q violates the spectral
    bounds, as the descent refuses such a control."""
    point = _evaluate(q, cfg, _PenalizedPath(cfg, pen), None)
    if point is None:
        raise CoefficientError("control violates the spectral bounds")
    return float(point.value)


def stationarity_residual(q: MatrixControlField, grad: MatrixControlField,
                          q_min: float, q_max: float) -> float:
    """Projected-gradient residual ||q - P(q - s grad)|| / s, s = _PG_STEP.

    Zero exactly at first-order stationary points of the bound-constrained
    problem; reduces to ||grad|| when the spectral bounds are inactive.
    """
    trial = project_spectral(q - _PG_STEP * grad, q_min, q_max)
    return control_norm(q - trial) / _PG_STEP


def solve_vi_adjoint(q: MatrixControlField, sol: VISolution,
                     u_d: ScalarField) -> ScalarField:
    """Adjoint of the VI-constrained tracking problem.

    Large-penalty limit of the penalized adjoint: the penalty Jacobian
    blows up exactly on the contact region, so p is pinned to zero on the
    strongly active nodes and solves K_q p = M (u - u_d) elsewhere, with
    K_q the cached stiffness `q.stiffness`. Biactive nodes (active with
    vanishing multiplier) stay free; without them this is the system, set
    up already, of the last sweep of sol, the VI solution at q.
    """
    mesh = q.mesh
    rhs = mesh.mass_matrix @ (sol.u.values - u_d.values)
    system = sol.system
    if not np.array_equal(sol.strongly_active, sol.active_set):
        system = q.stiffness.pin(sol.strongly_active)
    vals, _ = solve_spd(system, rhs)
    return ScalarField(mesh, vals)


class _PenalizedPath:
    """State/adjoint pair through the penalized equation (sol is u)."""

    def __init__(self, cfg: ObjectiveConfig, pen: PenaltyConfig):
        self.cfg = cfg
        self.pen = pen

    def state(self, q, prev):
        u = solve_penalized(q, self.cfg.f_load, self.pen, u0=prev)
        return u, u

    def adjoint(self, q, sol):
        return solve_adjoint(q, sol, self.cfg.u_d, self.pen)

    def multiplier(self, sol):
        return penalty_residual_as_multiplier(sol, self.pen)


class _VIPath:
    """State/adjoint pair through the obstacle VI (sol a VISolution)."""

    def __init__(self, cfg: ObjectiveConfig, psi: float):
        self.cfg = cfg
        self.psi = psi

    def state(self, q, prev):
        active0 = None if prev is None else prev.active_set
        sol = solve_vi(q, self.cfg.f_load, self.psi, active0=active0)
        return sol.u, sol

    def adjoint(self, q, sol):
        return solve_vi_adjoint(q, sol, self.cfg.u_d)

    def multiplier(self, sol):
        return sol.lam


def _descent(q0: MatrixControlField, path, cfg: ObjectiveConfig,
             opt: LoopConfig) -> OptResult:
    """Spectral projected gradient with a nonmonotone Armijo line search,
    shared by paths (Birgin, Martinez & Raydan, SIAM J. Optim. 10, 2000).

    The first trial step is _STEP_INIT, later ones the Barzilai-Borwein
    step <s,s>/<s,y> of the last move s with gradient change y, clipped to
    [_STEP_MIN, _STEP_MAX] and _STEP_MAX when <s,y> <= 0. Exits and
    guarantees are those stated in minimize.

    The path gives state(q, prev) -> (u, sol), warm started from the
    solution prev of the current point (None for a cold start),
    adjoint(q, sol) and multiplier(sol). Each control is evaluated once,
    by _evaluate: an accepted trial keeps its barrier and objective terms.
    """
    cur = _evaluate(q0, cfg, path, None)
    if cur is None:
        raise CoefficientError("initial control violates the spectral bounds")
    recent = deque([cur.value], maxlen=_MEMORY)
    best = cur.value
    stalled = 0
    first_step = _STEP_INIT
    history = []
    it = 0
    while True:
        q = cur.q
        g = reduced_gradient(q, cur.u, path.adjoint(q, cur.sol), cfg, cur.bar)
        resid = stationarity_residual(q, g, cfg.q_min, cfg.q_max)
        if it == 0:
            tol = opt.grad_tol_rel * (1.0 + resid)
        else:
            s = q - q_prev
            sy = control_inner(s, g - g_prev)
            first_step = _STEP_MAX if sy <= 0.0 else min(
                max(control_inner(s, s) / sy, _STEP_MIN), _STEP_MAX)
        gnorm = control_norm(g)
        entry = OptIterate(iteration=it, tracking=cur.tracking,
                           tikhonov=cur.tikhonov,
                           barrier_term=cur.barrier_term,
                           objective=cur.value, grad_norm=gnorm,
                           pg_residual=resid, step=0.0, backtracks=0,
                           feasibility_margin=cur.report.worst_value)
        if resid <= tol or it >= opt.max_iters:
            converged = resid <= tol
            history.append(entry)
            if converged and cur.value - best > _NOISE * abs(best):
                raise StagnationError(
                    f"stationary at iteration {it} by the gradient, but "
                    f"{cur.value - best:.1e} above the best accepted "
                    f"objective {best:.6e}: the gradient does not match "
                    f"the objective", tuple(history))
            break
        if stalled >= _MEMORY:
            history.append(entry)
            raise StagnationError(
                f"no new minimum in the {_MEMORY} steps up to iteration "
                f"{it}", tuple(history))
        gnorm2 = gnorm ** 2
        reference = max(recent)
        step = first_step
        for bt in range(_MAX_BACKTRACKS + 1):
            trial = _evaluate(project_spectral(q - step * g, cfg.q_min,
                                               cfg.q_max, _MARGIN),
                              cfg, path, cur.sol)
            if trial is not None \
                    and trial.value <= reference - _SIGMA * step * gnorm2:
                break
            step *= _BACKTRACK
        else:
            history.append(entry)
            raise StagnationError(
                f"line search stalled at iteration {it} after "
                f"{_MAX_BACKTRACKS} backtracks", tuple(history))
        history.append(replace(entry, step=step, backtracks=bt))
        q_prev, g_prev, cur = q, g, trial
        it += 1
        recent.append(cur.value)
        stalled = 0 if cur.value < best else stalled + 1
        best = min(best, cur.value)
    return OptResult(q=cur.q, u=cur.u, multiplier=path.multiplier(cur.sol),
                     solution=cur.sol, value=cur.value, pg_residual=resid,
                     history=tuple(history), converged=converged,
                     iterations=it)


def minimize(q0: MatrixControlField, cfg: ObjectiveConfig, pen: PenaltyConfig,
             opt: Optional[LoopConfig] = None) -> OptResult:
    """Minimize the reduced objective subject to the penalized state.

    Spectral projected gradient with a nonmonotone line search: every
    accepted step satisfies J(q+) <= max(last _MEMORY values of J)
    - _SIGMA step ||g||^2, and every accepted iterate passes the
    determinant/trace admissibility test. Terminates when the
    projected-gradient residual falls below grad_tol_rel (1 + initial
    residual) at an objective within rounding of the best accepted one,
    or when the iteration budget runs out (converged=False on the
    result).

    Raises StagnationError, carrying the history, if the line search hits
    the backtracking floor, if _MEMORY accepted steps in a row bring no
    new minimum, or if the residual test is met above the best accepted
    objective (a gradient that does not match the objective).
    """
    if opt is None:
        opt = LoopConfig()
    return _descent(q0, _PenalizedPath(cfg, pen), cfg, opt)


def solve_vi_constrained(q0: MatrixControlField, cfg: ObjectiveConfig,
                         psi: float,
                         opt: Optional[LoopConfig] = None) -> OptResult:
    """Minimize the reduced objective subject to the obstacle VI.

    Same descent loop as minimize, with the state produced by the
    active-set VI solver and the adjoint pinned on the strongly active
    nodes (large-penalty limit). Produces the reference pair that penalty
    continuation runs are measured against.
    """
    if opt is None:
        opt = LoopConfig()
    return _descent(q0, _VIPath(cfg, psi), cfg, opt)


def gamma_continuation(q0: MatrixControlField, cfg: ObjectiveConfig,
                       gammas: Sequence[float], pen: PenaltyConfig,
                       opt: Optional[LoopConfig] = None,
                       reference: Optional[OptResult] = None
                       ) -> tuple[GammaLeg, ...]:
    """Path-following in the penalty parameter.

    Runs minimize for each gamma in the strictly increasing list, warm
    starting each leg from the previous minimizer. pen supplies every
    penalty setting except gamma, which is overwritten per leg. When a
    reference result is given (VI-constrained solve on the same mesh), each
    leg records the state and control distances to it.
    """
    gam = [float(g) for g in gammas]
    if len(gam) == 0:
        raise ValueError("gamma list is empty")
    if any(b <= a for a, b in zip(gam, gam[1:])):
        raise ValueError("gamma list must be strictly increasing")
    legs = []
    q = q0
    for gamma in gam:
        result = minimize(q, cfg, replace(pen, gamma=gamma), opt)
        err_u = err_q = None
        if reference is not None:
            err_u = l2_norm(result.u - reference.u)
            err_q = control_norm(result.q - reference.q)
        legs.append(GammaLeg(gamma, result, err_u, err_q))
        q = result.q
    return tuple(legs)
