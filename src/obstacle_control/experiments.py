"""Experiment pipelines with reproducible file artifacts.

Each runner takes an ExperimentConfig, solves the requested problem, and
writes its VTK fields and CSV tables into a subdirectory of
cfg.output_dir. One tail, _report, then writes the run's meta.json there
(every config field as "parameters", the "started" and "finished"
timestamps and the runner's own numbers) and returns the RunReport whose
notes are that record. Given identical config and seed the CSV and VTK
outputs are byte-identical between runs; timestamps live only in
meta.json.
"""

from __future__ import annotations

import datetime
import math
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, get_args, \
    get_origin, get_type_hints

import numpy as np

from .control import MatrixControlField, check_admissible, control_inner
from .errors import ConfigError
from .fem import MAX_LEVEL, ScalarField, build_mesh, \
    l2_error_vs_function, l2_norm
from .obstacle import VISolution, complementarity_residuals, solve_vi
from .optimize import ObjectiveConfig, OptResult, gamma_continuation, \
    objective_value, reduced_gradient, solve_vi_constrained
from .penalty import PenaltyConfig, solve_adjoint, solve_penalized
from .problems import ALPHA, BETA, Q_INIT, Q_MAX, Q_MIN, \
    example_objective, initial_control, target_state
from .sensitivity import CriticalCone, build_critical_cone, \
    cone_derivative, derivative_complementarity_check, direction_load, \
    directional_derivative
from .vtkio import write_csv, write_meta, write_structured_vtk


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat experiment parameters, read from key=value text plus overrides.

    q_init is the triple (q11, q12, q22) of the constant starting control;
    gamma is the single penalty weight used by the check commands while
    gamma_list drives the continuation of the second example; levels is
    the mesh sequence of the convergence study. Every float, tuple entries
    included, must be finite.
    """

    level: int = 5
    levels: Tuple[int, ...] = (3, 4, 5)
    alpha: float = ALPHA
    beta: float = BETA
    gamma: float = 1e3
    gamma_list: Tuple[float, ...] = (1e0, 1e3, 1e6, 1e9, 1e12)
    psi: float = PenaltyConfig.psi
    q_min: float = Q_MIN
    q_max: float = Q_MAX
    q_init: Tuple[float, float, float] = Q_INIT
    seed: int = 0
    output_dir: str = "results"

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            entries = value if isinstance(value, tuple) else (value,)
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in entries):
                raise ConfigError(f"{f.name} must be finite")
        if not 1 <= self.level <= MAX_LEVEL:
            raise ConfigError(f"level must lie between 1 and {MAX_LEVEL}")
        if not self.levels or any(not 1 <= l <= MAX_LEVEL
                                  for l in self.levels):
            raise ConfigError(f"levels must lie between 1 and {MAX_LEVEL}")
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise ConfigError("levels must be strictly increasing")
        if self.alpha <= 0.0:
            raise ConfigError("alpha must be positive")
        if self.beta < 0.0:
            raise ConfigError("beta must be nonnegative")
        if self.gamma < 0.0:
            raise ConfigError("gamma must be nonnegative")
        if not self.gamma_list:
            raise ConfigError("gamma_list must not be empty")
        if any(g < 0.0 for g in self.gamma_list):
            raise ConfigError("gamma_list entries must be nonnegative")
        if any(b <= a for a, b in zip(self.gamma_list, self.gamma_list[1:])):
            raise ConfigError("gamma_list must be strictly increasing")
        if self.psi <= 0.0:
            raise ConfigError("psi must be positive")
        if not 0.0 < self.q_min < self.q_max:
            raise ConfigError("bounds must satisfy 0 < q_min < q_max")
        if len(self.q_init) != 3:
            raise ConfigError("q_init needs the three entries q11,q12,q22")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")


def _parse_value(kind, text: str):
    """A config value of the given field type from its text: an int, a
    float or a str, or a tuple of one of them written comma-separated."""
    if get_origin(kind) is tuple:
        return tuple(_parse_value(get_args(kind)[0], p)
                     for p in text.split(",") if p.strip())
    try:
        return kind(text)
    except ValueError as exc:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"not {noun}: {text!r}") from exc


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def parse_field(key: str, text: str):
    """Config key `key`'s value from its text, or a ConfigError."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key: {key}")
    return _parse_value(_FIELD_TYPES[key], text.strip())


def _parse_item(text: str, malformed: str) -> Tuple[str, object]:
    """Key and parsed value of one key=value item. Raises ConfigError with
    the message `malformed` when it has no '=', and on an unknown key."""
    if "=" not in text:
        raise ConfigError(malformed)
    key, val = (part.strip() for part in text.split("=", 1))
    return key, parse_field(key, val)


def parse_config_text(text: str) -> Dict:
    """Parse flat key=value lines; # starts a comment, blanks are skipped."""
    values: Dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = _parse_item(line, f"line {lineno}: expected "
                                   f"key=value, got {raw.strip()!r}")
            values[key] = val
    return values


def load_config(path=None, overrides: Sequence[str] = (),
                **direct) -> ExperimentConfig:
    """Build a config from an optional file, key=value overrides, and
    direct keyword values (highest precedence; None means not given).
    Unknown keys are errors: a text key here, a keyword in the config's
    constructor."""
    values: Dict = {}
    if path is not None:
        p = Path(path)
        if not p.is_file():
            raise ConfigError(f"config file not found: {path}")
        values.update(parse_config_text(p.read_text()))
    values.update(_parse_item(item, f"override {item!r} is not key=value")
                  for item in overrides)
    values.update((key, val) for key, val in direct.items()
                  if val is not None)
    try:
        return ExperimentConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class ResultTable:
    """Rows of (gamma, err_u, err_q), ascending in gamma."""

    rows: Tuple[Tuple[float, float, float], ...]

    def __post_init__(self):
        gammas = [row[0] for row in self.rows]
        if any(b <= a for a, b in zip(gammas, gammas[1:])):
            raise ValueError("table rows must be sorted by gamma ascending")


@dataclass
class RunReport:
    """What a runner produced: pass/fail, artifact paths, key numbers."""

    passed: bool
    outputs: List[Path] = field(default_factory=list)
    table: Optional[ResultTable] = None
    result: Optional[OptResult] = None
    notes: Dict = field(default_factory=dict)


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _setup(cfg: ExperimentConfig):
    mesh = build_mesh(cfg.level)
    obj = example_objective(mesh, cfg.alpha, cfg.beta, cfg.q_min, cfg.q_max)
    q0 = initial_control(mesh, cfg.q_init)
    return mesh, obj, q0


def _field_dict(result: OptResult) -> Dict[str, np.ndarray]:
    comps = result.q.comps
    return {
        "u": result.u.values,
        "lambda": result.multiplier.values,
        "q11": comps[:, 0],
        "q22": comps[:, 1],
        "q12": comps[:, 2],
    }


def _history_rows(history) -> List[tuple]:
    return [(it.iteration, it.objective, it.tracking, it.tikhonov,
             it.barrier_term, it.grad_norm, it.pg_residual, it.step,
             it.backtracks, it.feasibility_margin) for it in history]


_HISTORY_HEADER = ["iteration", "objective", "tracking", "tikhonov",
                   "barrier", "grad_norm", "pg_residual", "step",
                   "backtracks", "feasibility_margin"]


def _feasibility_violations(history) -> int:
    return sum(1 for it in history if not it.feasibility_margin > 0.0)


_RATIO_BOUND = 4.5


def _warn_multiplier(ratio: float) -> bool:
    exceeded = ratio > _RATIO_BOUND
    if exceeded:
        warnings.warn(f"multiplier ratio {ratio:.3f} exceeds the expected "
                      f"bound {_RATIO_BOUND}", RuntimeWarning)
    return exceeded


def _report(cfg: ExperimentConfig, outdir: Path, started: str,
            outputs: List[Path], notes: Dict, passed: bool = True,
            table: Optional[ResultTable] = None,
            result: Optional[OptResult] = None) -> RunReport:
    """The tail of every runner: write outdir/meta.json (every config
    field as "parameters", "started", "finished" and the runner's notes),
    append its path to outputs, and report with that record as notes."""
    meta = {"parameters": {f.name: getattr(cfg, f.name)
                           for f in fields(cfg)},
            "started": started, "finished": _now(), **notes}
    outputs.append(write_meta(outdir / "meta.json", meta))
    return RunReport(passed=passed, outputs=outputs, table=table,
                     result=result, notes=meta)


def run_example1(cfg: ExperimentConfig) -> RunReport:
    """Optimal control subject to the obstacle VI on one mesh.

    Writes the final state, multiplier, and control components as VTK
    point data plus the iteration log. With default parameters the state
    presses against the obstacle on a nonempty contact region.
    """
    started = _now()
    outdir = Path(cfg.output_dir) / "example1"
    mesh, obj, q0 = _setup(cfg)
    result = solve_vi_constrained(q0, obj, cfg.psi)
    sol = result.solution
    ratio = l2_norm(sol.lam) / max(sol.f_norm, 1e-300)
    feas_u, feas_lam, comp = complementarity_residuals(sol, cfg.psi)
    outputs = [
        write_structured_vtk(outdir / "solution.vtk", mesh,
                             _field_dict(result)),
        write_csv(outdir / "log.csv", _HISTORY_HEADER,
                  _history_rows(result.history)),
    ]
    return _report(cfg, outdir, started, outputs, {
        "converged": result.converged,
        "iterations": result.iterations,
        "objective": result.value,
        "pg_residual": result.pg_residual,
        "contact_nodes": int(sol.active_set.sum()),
        "strongly_active_nodes": int(sol.strongly_active.sum()),
        "complementarity": {"feas_u": feas_u, "feas_lambda": feas_lam,
                            "orthogonality": comp},
        "multiplier_ratio": ratio,
        "multiplier_ratio_exceeded": _warn_multiplier(ratio),
        "barrier_violations": _feasibility_violations(result.history),
    }, result=result)


def run_example2(cfg: ExperimentConfig) -> RunReport:
    """Penalty continuation against the VI-constrained reference.

    Solves the VI-constrained problem once as the reference, then the
    penalized problem for each gamma in cfg.gamma_list (warm-started), and
    tabulates the distances err_u = ||u_gamma - u_ref|| and
    err_q = ||q_gamma - q_ref||.
    """
    started = _now()
    outdir = Path(cfg.output_dir) / "example2"
    mesh, obj, q0 = _setup(cfg)
    reference = solve_vi_constrained(q0, obj, cfg.psi)
    legs = gamma_continuation(q0, obj, cfg.gamma_list, cfg.psi,
                              reference=reference)
    violations = _feasibility_violations(reference.history)
    outputs = []
    leg_stats = []
    for leg in legs:
        violations += _feasibility_violations(leg.result.history)
        tag = format(leg.gamma, ".0e")
        outputs.append(write_structured_vtk(
            outdir / f"solution_gamma_{tag}.vtk", mesh,
            _field_dict(leg.result)))
        leg_stats.append({
            "gamma": leg.gamma,
            "iterations": leg.result.iterations,
            "converged": leg.result.converged,
            "objective": leg.result.value,
        })
    table = ResultTable(
        rows=tuple((leg.gamma, leg.err_u, leg.err_q) for leg in legs))
    outputs.append(write_csv(outdir / "table.csv",
                             ["gamma", "err_u_L2", "err_q_L2"], table.rows))
    outputs.append(write_structured_vtk(outdir / "reference.vtk", mesh,
                                        _field_dict(reference)))
    return _report(cfg, outdir, started, outputs, {
        "reference_iterations": reference.iterations,
        "reference_converged": reference.converged,
        "legs": leg_stats,
        "barrier_violations": violations,
    }, table=table, result=reference)


def run_convergence(cfg: ExperimentConfig) -> RunReport:
    """Discretization study against the manufactured solution.

    Solves with the target coefficient on each level and measures the L2
    error against the target state. Without obstacle contact the observed
    rate is the quantity of interest; with contact the obstacle distorts
    the comparison, so rates are reported but carry no expectation.
    """
    started = _now()
    outdir = Path(cfg.output_dir) / "convergence"
    rows: List[tuple] = []
    errors: List[float] = []
    hs: List[float] = []
    sweeps: List[int] = []
    contact = False
    for level in cfg.levels:
        mesh = build_mesh(level)
        obj = example_objective(mesh, cfg.alpha, cfg.beta, cfg.q_min,
                                cfg.q_max)
        sol = solve_vi(obj.q_d, obj.f_load, cfg.psi)
        u = sol.u
        contact = contact or bool(sol.active_set.any())
        sweeps.append(sol.iterations)
        # q_d's cached stiffness and sol's last system would outlive the
        # solve through the error integral, the largest allocation
        del obj, sol
        err = l2_error_vs_function(u, target_state)
        hs.append(mesh.h)
        errors.append(err)
        if len(errors) > 1:
            rate = float(np.log(errors[-2] / errors[-1])
                         / np.log(hs[-2] / hs[-1]))
            rows.append((level, mesh.h, err, rate))
        else:
            rows.append((level, mesh.h, err, ""))
    outputs = [write_csv(outdir / "rates.csv",
                         ["level", "h", "err_L2", "rate"], rows)]
    return _report(cfg, outdir, started, outputs, {
        "contact": contact,
        "errors": errors,
        "rates": [row[3] for row in rows[1:]],
        "pdas_sweeps": sweeps,
    })


def _random_admissible(mesh, rng, q_min: float, q_max: float,
                       margin: float = 0.1) -> MatrixControlField:
    """Random control with nodal eigenvalues strictly inside the bounds."""
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


def _random_direction(mesh, rng, scale: float) -> MatrixControlField:
    comps = rng.standard_normal((mesh.n_nodes, 3)) * scale
    return MatrixControlField(mesh, comps)


_QUOTIENT_STEPS = (1e-2, 1e-3, 1e-4)


def _difference_quotients(cfg: ExperimentConfig, obj: ObjectiveConfig,
                          q0: MatrixControlField, rng: np.random.Generator
                          ) -> Tuple[VISolution, CriticalCone, List[tuple]]:
    """The VI solution at q0, its critical cone, and (load, u', errors)
    for three random directions d at q0, each halved once if q0 + d is
    not admissible: load is the direction_load of d, u' the cone
    derivative of the solution map along d, and the errors are the L2
    distances of the quotients (u(q0 + t d) - u(q0)) / t to it at
    _QUOTIENT_STEPS."""
    mesh = q0.mesh
    sol = solve_vi(q0, obj.f_load, cfg.psi)
    cone = build_critical_cone(sol)
    out = []
    for _ in range(3):
        d = _random_direction(mesh, rng, scale=0.1)
        if not check_admissible(q0 + d, cfg.q_min, cfg.q_max).admissible:
            d = 0.5 * d
        load = direction_load(d, sol.u)
        ut = cone_derivative(q0, load, cone)
        errs = []
        for t in _QUOTIENT_STEPS:
            solt = solve_vi(q0 + t * d, obj.f_load, cfg.psi,
                            active0=sol.active_set)
            quot = (solt.u.values - sol.u.values) / t
            errs.append(l2_norm(ScalarField(mesh, quot - ut.values)))
        out.append((load, ut, errs))
    return sol, cone, out


def run_gradcheck(cfg: ExperimentConfig) -> RunReport:
    """Finite-difference validation of the adjoint gradient and the
    directional derivative of the solution map.

    Three checks: (a) adjoint directional derivatives of the penalized
    objective against central differences at random feasible controls;
    (b) halving the FD step shrinks its error by about four (second
    order); (c) VI difference quotients approach the cone derivative as
    t decreases, and the zero direction returns exactly zero.
    """
    started = _now()
    outdir = Path(cfg.output_dir) / "gradcheck"
    mesh, obj, q0 = _setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    pen = PenaltyConfig(cfg.gamma, cfg.psi)

    fd_rows: List[tuple] = []
    max_rel = 0.0
    h = 1e-5
    for ctrl in range(3):
        q = _random_admissible(mesh, rng, cfg.q_min, cfg.q_max)
        u = solve_penalized(q, obj.f_load, pen)
        p = solve_adjoint(q, u, obj.u_d, pen)
        g = reduced_gradient(q, u, p, obj)
        for direction in range(5):
            d = _random_direction(mesh, rng, scale=0.1)
            dd_adj = control_inner(g, d)
            plus = objective_value(q + h * d, obj, pen)
            minus = objective_value(q - h * d, obj, pen)
            dd_fd = (plus - minus) / (2.0 * h)
            rel = abs(dd_adj - dd_fd) / max(abs(dd_fd), 1e-300)
            max_rel = max(max_rel, rel)
            fd_rows.append((ctrl, direction, dd_adj, dd_fd, rel))
    fd_pass = max_rel <= 1e-4

    # step halving on the last control/direction pair; the base step is
    # large enough for truncation to dominate the solver noise floor
    h0 = 3e-2
    errs_h = []
    for step in (h0, h0 / 2.0):
        plus = objective_value(q + step * d, obj, pen)
        minus = objective_value(q - step * d, obj, pen)
        errs_h.append(abs((plus - minus) / (2.0 * step) - dd_adj))
    halving_ratio = errs_h[0] / max(errs_h[1], 1e-300)
    halving_pass = 2.0 <= halving_ratio <= 8.0

    # cone derivative against VI difference quotients
    sol, cone, quotients = _difference_quotients(cfg, obj, q0, rng)
    quot_rows = [(direction, t, err)
                 for direction, (_, _, errs) in enumerate(quotients)
                 for t, err in zip(_QUOTIENT_STEPS, errs)]
    quot_pass = all(errs[0] > errs[1] > errs[2]
                    for _, _, errs in quotients)
    zero_dir = directional_derivative(
        q0, MatrixControlField.constant(mesh, np.zeros((2, 2))), sol, cone)
    zero_pass = bool(np.all(zero_dir.values == 0.0))

    passed = fd_pass and halving_pass and quot_pass and zero_pass
    outputs = [
        write_csv(outdir / "adjoint_fd.csv",
                  ["control", "direction", "dd_adjoint", "dd_fd",
                   "rel_error"], fd_rows),
        write_csv(outdir / "quotients.csv",
                  ["direction", "t", "quotient_error"], quot_rows),
    ]
    return _report(cfg, outdir, started, outputs, {
        "max_rel_error": max_rel,
        "fd_pass": fd_pass,
        "halving_ratio": halving_ratio,
        "halving_pass": halving_pass,
        "quotient_pass": quot_pass,
        "zero_direction_pass": zero_pass,
        "passed": passed,
    }, passed=passed)


def run_sensitivity(cfg: ExperimentConfig) -> RunReport:
    """Directional-derivative study at the starting control.

    Reports the critical-cone split, difference-quotient errors for three
    random directions, and the complementarity residuals of each
    derivative solve. Fails when quotients do not improve with t or a
    residual exceeds 1e-8.
    """
    started = _now()
    outdir = Path(cfg.output_dir) / "sensitivity"
    _, obj, q0 = _setup(cfg)
    rng = np.random.default_rng(cfg.seed)
    rows: List[tuple] = []
    passed = True
    worst_residual = 0.0
    sol, cone, quotients = _difference_quotients(cfg, obj, q0, rng)
    for direction, (load, ut, errs) in enumerate(quotients):
        feas, polar, comp = derivative_complementarity_check(
            ut, cone, q0, load)
        worst_residual = max(worst_residual, feas, polar, comp)
        rows.extend((direction, t, err, feas, polar, comp)
                    for t, err in zip(_QUOTIENT_STEPS, errs))
        passed = passed and errs[0] > errs[1] > errs[2]
    passed = passed and worst_residual <= 1e-8

    outputs = [write_csv(
        outdir / "quotients.csv",
        ["direction", "t", "quotient_error", "feasibility", "polarity",
         "orthogonality"], rows)]
    return _report(cfg, outdir, started, outputs, {
        "contact_nodes": int(sol.active_set.sum()),
        "zero_nodes": int(cone.zero_nodes.sum()),
        "nonpositive_nodes": int(cone.nonpositive_nodes.sum()),
        "free_nodes": int(cone.free_nodes.sum()),
        "worst_residual": worst_residual,
        "passed": passed,
    }, passed=passed)
