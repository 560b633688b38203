"""Span tracer that times calls into the package's public functions.

The package binds its functions with ``from .x import y``, so one function
lives under its name in several modules (``solve_spd`` is bound in
``linsolve``, ``control``, ``optimize``, ``obstacle``, ``penalty`` and the
package itself). The tracer builds one wrapper per function and binds it
in every package module that holds the original, so no call path is
missed. Each call records a span ``[name, parent, start, end, payload]``,
where ``parent`` is the index of the enclosing span (-1 at the top) and
``payload`` is a count read from the return value. A call that raised
keeps its span and its time, but its payload stays None and adds no
count. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer numbers.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, List, Optional

PACKAGE = "obstacle_control"


def _iterations(result) -> int:
    return result.iterations


def _cg_iterations(result) -> int:
    return result[1].iterations


def _descent_counts(result) -> tuple:
    return result.iterations, sum(it.backtracks for it in result.history)


# (module, function, payload reader); the span name is "module.function"
TRACED = (
    ("fem", "assemble_stiffness", None),
    ("linsolve", "solve_spd", _cg_iterations),
    ("obstacle", "solve_vi", _iterations),
    ("penalty", "solve_penalized", None),
    ("penalty", "solve_adjoint", None),
    ("control", "barrier", None),
    ("control", "project_spectral", None),
    ("optimize", "reduced_gradient", None),
    ("optimize", "solve_vi_adjoint", None),
    ("optimize", "minimize", _descent_counts),
    ("optimize", "solve_vi_constrained", _descent_counts),
    ("vtkio", "write_structured_vtk", str),
    ("vtkio", "write_csv", str),
    ("vtkio", "write_meta", str),
    ("experiments", "run_example1", None),
    ("experiments", "run_example2", None),
    ("experiments", "run_convergence", None),
)

# a solve_spd span under one of these parents is a mass-matrix Riesz lift;
# under any other parent it is a stiffness (or penalized stiffness) solve
MASS_PARENTS = frozenset({"control.barrier", "optimize.reduced_gradient"})
DESCENT = frozenset({"optimize.minimize", "optimize.solve_vi_constrained"})
STATE_SOLVES = frozenset({"obstacle.solve_vi", "penalty.solve_penalized"})

# every per-layer metric, in report order, with its unit
PER_LAYER = (
    ("fem.assemble_stiffness.calls", "count"),
    ("fem.assemble_stiffness.self_s", "s"),
    ("linsolve.mass.calls", "count"),
    ("linsolve.mass.self_s", "s"),
    ("linsolve.mass.cg_iters", "count"),
    ("linsolve.stiff.calls", "count"),
    ("linsolve.stiff.self_s", "s"),
    ("linsolve.stiff.cg_iters", "count"),
    ("linsolve.stiff.cg_per_solve", "ratio"),
    ("obstacle.solve_vi.calls", "count"),
    ("obstacle.solve_vi.self_s", "s"),
    ("obstacle.pdas_sweeps", "count"),
    ("obstacle.sweeps_per_solve", "ratio"),
    ("penalty.solve_penalized.calls", "count"),
    ("penalty.solve_penalized.self_s", "s"),
    ("penalty.newton_steps", "count"),
    ("penalty.newton_per_solve", "ratio"),
    ("penalty.solve_adjoint.calls", "count"),
    ("penalty.solve_adjoint.self_s", "s"),
    ("control.barrier.calls", "count"),
    ("control.barrier.self_s", "s"),
    ("control.project_spectral.calls", "count"),
    ("control.project_spectral.self_s", "s"),
    ("optimize.reduced_gradient.calls", "count"),
    ("optimize.reduced_gradient.self_s", "s"),
    ("optimize.solve_vi_adjoint.calls", "count"),
    ("optimize.solve_vi_adjoint.self_s", "s"),
    ("optimize.loop.self_s", "s"),
    ("optimize.outer_iters", "count"),
    ("optimize.backtracks", "count"),
    ("optimize.state_solves", "count"),
    ("optimize.accept_ratio", "ratio"),
    ("vtkio.write.calls", "count"),
    ("vtkio.write.self_s", "s"),
    ("vtkio.write.bytes", "B"),
    ("experiments.run.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def package_modules() -> List:
    """The package and every one of its submodules imported so far."""
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


class Tracer:
    """Records one span per call into a traced function while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self._open: List[int] = []

    def wrap(self, name: str, fn: Callable,
             reader: Optional[Callable]) -> Callable:
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, open_spans[-1] if open_spans else -1, 0.0, 0.0,
                    None]
            open_spans.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_spans.pop()
            if reader is not None:
                span[4] = reader(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Bind the wrappers in every package module; restore on exit."""
        modules = package_modules()
        wrappers: Dict[int, Callable] = {}
        for module, function, reader in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], function)
            wrappers[id(original)] = self.wrap(f"{module}.{function}",
                                               original, reader)
        patched = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and value is wrapper.__wrapped__:
                    setattr(mod, attr, wrapper)
                    patched.append((mod, attr, value))
        try:
            yield self
        finally:
            for mod, attr, original in reversed(patched):
                setattr(mod, attr, original)


def layer_metrics(spans: List[list]) -> Dict[str, float]:
    """Per-layer counts and self times from one traced workload call.

    Self time is a span's duration minus the durations of its direct
    children; spans of one thread nest, so children never overlap.
    ``trace.overhead_s`` is left at 0 for the caller to fill in.
    """
    child_time = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Dict[str, int] = defaultdict(int)
    self_s: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for index, (name, parent, start, end, payload) in enumerate(spans):
        parent_name = spans[parent][0] if parent >= 0 else None
        # a call that raised returned nothing to read a count from
        done = payload is not None
        layer = name
        if name == "linsolve.solve_spd":
            layer = ("linsolve.mass" if parent_name in MASS_PARENTS
                     else "linsolve.stiff")
            if done:
                counts[layer + ".cg_iters"] += payload
            if layer == "linsolve.stiff" \
                    and parent_name == "penalty.solve_penalized":
                counts["penalty.newton_steps"] += 1
        elif name == "obstacle.solve_vi":
            if done:
                counts["obstacle.pdas_sweeps"] += payload
        elif name in DESCENT:
            layer = "optimize.loop"
            if done:
                counts["optimize.outer_iters"] += payload[0]
                counts["optimize.backtracks"] += payload[1]
        elif name.startswith("vtkio.write"):
            layer = "vtkio.write"
            if done:
                counts["vtkio.write.bytes"] += Path(payload).stat().st_size
        elif name.startswith("experiments.run_"):
            layer = "experiments.run"
        if name in STATE_SOLVES and parent_name in DESCENT:
            counts["optimize.state_solves"] += 1
        calls[layer] += 1
        self_s[layer] += end - start - child_time[index]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: Dict[str, float] = {}
    for metric, _ in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if tail == "calls":
            out[metric] = calls[head]
        elif tail == "self_s":
            out[metric] = self_s[head]
        else:
            out[metric] = counts[metric]
    out["linsolve.stiff.cg_per_solve"] = ratio(
        out["linsolve.stiff.cg_iters"], out["linsolve.stiff.calls"])
    out["obstacle.sweeps_per_solve"] = ratio(
        out["obstacle.pdas_sweeps"], out["obstacle.solve_vi.calls"])
    out["penalty.newton_per_solve"] = ratio(
        out["penalty.newton_steps"], out["penalty.solve_penalized.calls"])
    out["optimize.accept_ratio"] = ratio(
        out["optimize.outer_iters"], out["optimize.state_solves"])
    out["trace.overhead_s"] = 0.0
    return out
