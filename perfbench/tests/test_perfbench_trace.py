"""Tests of the benchmark's tracer, workload checks and command line.

Run from the repository root with
``python -m pytest -q perfbench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import obstacle_control as oc  # noqa: E402
from obstacle_control import experiments, linsolve, obstacle, \
    optimize  # noqa: E402
from tracer import PER_LAYER, TRACED, Tracer, layer_metrics, \
    package_modules  # noqa: E402
from workloads import WORKLOADS, make_config  # noqa: E402

# counts of one traced call at level 3 (seed 0); times and written bytes
# (meta.json holds the output path) are left out
LEVEL3_COUNTS = {
    "example1-l5": {
        "fem.assemble_stiffness.calls": 165,
        "linsolve.mass.calls": 984,
        "linsolve.mass.cg_iters": 20908,
        "linsolve.stiff.calls": 340,
        "linsolve.stiff.cg_iters": 3935,
        "linsolve.stiff.cg_per_solve": 3935 / 340,
        "obstacle.solve_vi.calls": 165,
        "obstacle.pdas_sweeps": 176,
        "obstacle.sweeps_per_solve": 176 / 165,
        "penalty.solve_penalized.calls": 0,
        "penalty.newton_steps": 0,
        "penalty.newton_per_solve": 0.0,
        "penalty.solve_adjoint.calls": 0,
        "control.barrier.calls": 327,
        "control.project_spectral.calls": 327,
        "optimize.reduced_gradient.calls": 164,
        "optimize.solve_vi_adjoint.calls": 164,
        "optimize.outer_iters": 163,
        "optimize.backtracks": 0,
        "optimize.state_solves": 164,
        "optimize.accept_ratio": 163 / 164,
        "vtkio.write.calls": 3,
    },
    "example2-l5": {
        "fem.assemble_stiffness.calls": 801,
        "linsolve.mass.calls": 4806,
        "linsolve.mass.cg_iters": 79880,
        "linsolve.stiff.calls": 2058,
        "linsolve.stiff.cg_iters": 32899,
        "linsolve.stiff.cg_per_solve": 32899 / 2058,
        "obstacle.solve_vi.calls": 164,
        "obstacle.pdas_sweeps": 173,
        "obstacle.sweeps_per_solve": 173 / 164,
        "penalty.solve_penalized.calls": 637,
        "penalty.newton_steps": 1084,
        "penalty.newton_per_solve": 1084 / 637,
        "penalty.solve_adjoint.calls": 637,
        "control.barrier.calls": 1596,
        "control.project_spectral.calls": 1596,
        "optimize.reduced_gradient.calls": 801,
        "optimize.solve_vi_adjoint.calls": 164,
        "optimize.outer_iters": 795,
        "optimize.backtracks": 0,
        "optimize.state_solves": 801,
        "optimize.accept_ratio": 795 / 801,
        "vtkio.write.calls": 8,
    },
    "convergence-l8": {
        "fem.assemble_stiffness.calls": 1,
        "linsolve.mass.calls": 0,
        "linsolve.mass.cg_iters": 0,
        "linsolve.stiff.calls": 3,
        "linsolve.stiff.cg_iters": 29,
        "linsolve.stiff.cg_per_solve": 29 / 3,
        "obstacle.solve_vi.calls": 1,
        "obstacle.pdas_sweeps": 3,
        "obstacle.sweeps_per_solve": 3.0,
        "penalty.solve_penalized.calls": 0,
        "penalty.newton_steps": 0,
        "penalty.newton_per_solve": 0.0,
        "penalty.solve_adjoint.calls": 0,
        "control.barrier.calls": 0,
        "control.project_spectral.calls": 0,
        "optimize.reduced_gradient.calls": 0,
        "optimize.solve_vi_adjoint.calls": 0,
        "optimize.outer_iters": 0,
        "optimize.backtracks": 0,
        "optimize.state_solves": 0,
        "optimize.accept_ratio": 0.0,
        "vtkio.write.calls": 2,
    },
}


def _traced_call(workload, tmp_path, level=3, seed=0):
    cfg = make_config(oc, workload, level, seed, str(tmp_path))
    tracer = Tracer()
    with tracer.installed():
        report = getattr(oc, workload.runner)(cfg)
    return report, layer_metrics(tracer.spans)


def _counts(metrics):
    units = dict(PER_LAYER)
    return {name: value for name, value in metrics.items()
            if units[name] not in ("s", "B")}


def test_wrappers_replace_every_binding_and_are_removed():
    tracer = Tracer()
    originals = {(m, f): getattr(sys.modules[f"obstacle_control.{m}"], f)
                 for m, f, _ in TRACED}
    with tracer.installed():
        for mod in package_modules():
            for value in vars(mod).values():
                assert not any(value is fn for fn in originals.values()), \
                    f"{mod.__name__} still binds an untraced function"
        for name in ("", ".control", ".optimize", ".obstacle", ".penalty",
                     ".linsolve"):
            mod = sys.modules["obstacle_control" + name]
            assert mod.solve_spd.__wrapped__ is originals[
                ("linsolve", "solve_spd")]
    for (module, function), fn in originals.items():
        assert getattr(sys.modules[f"obstacle_control.{module}"],
                       function) is fn


def test_self_time_subtracts_children_and_parents_classify_solves(
        tmp_path):
    written = tmp_path / "out.csv"
    written.write_bytes(b"x" * 100)
    spans = [
        ["experiments.run_example1", -1, 0.0, 16.0, None],
        ["optimize.solve_vi_constrained", 0, 1.0, 13.0, (5, 2)],
        ["obstacle.solve_vi", 1, 2.0, 4.0, 3],
        ["linsolve.solve_spd", 2, 2.5, 3.0, 7],
        ["control.barrier", 1, 5.0, 6.0, None],
        ["linsolve.solve_spd", 4, 5.25, 5.5, 11],
        ["penalty.solve_penalized", 1, 7.0, 9.0, None],
        ["linsolve.solve_spd", 6, 7.5, 8.0, 4],
        ["vtkio.write_csv", 0, 14.0, 15.0, str(written)],
    ]
    m = layer_metrics(spans)
    assert m["experiments.run.self_s"] == 16.0 - 12.0 - 1.0
    assert m["optimize.loop.self_s"] == 12.0 - 2.0 - 1.0 - 2.0
    assert m["obstacle.solve_vi.self_s"] == 1.5
    assert m["control.barrier.self_s"] == 0.75
    assert m["penalty.solve_penalized.self_s"] == 1.5
    assert (m["linsolve.mass.calls"], m["linsolve.mass.cg_iters"]) == (1, 11)
    assert (m["linsolve.stiff.calls"], m["linsolve.stiff.cg_iters"]) \
        == (2, 11)
    assert m["linsolve.stiff.self_s"] == 1.0
    assert m["penalty.newton_steps"] == 1
    assert m["obstacle.pdas_sweeps"] == 3
    assert (m["optimize.outer_iters"], m["optimize.backtracks"]) == (5, 2)
    assert m["optimize.state_solves"] == 2
    assert m["optimize.accept_ratio"] == 2.5
    assert (m["vtkio.write.calls"], m["vtkio.write.bytes"]) == (1, 100)
    assert list(m) == [name for name, _ in PER_LAYER]


@pytest.mark.parametrize("name", ["example1-l5", "example2-l5"])
def test_traced_counts_match_returned_values(name, tmp_path, monkeypatch):
    """Every VISolution and OptResult the package builds is seen by the
    tracer: their iteration sums equal the traced counters."""
    built = {"vi": [], "opt": []}

    def recording(cls, key):
        def make(*args, **kwargs):
            obj = cls(*args, **kwargs)
            built[key].append(obj)
            return obj
        return make

    monkeypatch.setattr(obstacle, "VISolution",
                        recording(obstacle.VISolution, "vi"))
    monkeypatch.setattr(optimize, "OptResult",
                        recording(optimize.OptResult, "opt"))
    report, m = _traced_call(WORKLOADS[name], tmp_path)
    assert m["obstacle.pdas_sweeps"] == sum(s.iterations
                                            for s in built["vi"])
    assert m["obstacle.solve_vi.calls"] == len(built["vi"])
    assert m["optimize.outer_iters"] == sum(r.iterations
                                            for r in built["opt"])
    returned = report.result.iterations + sum(
        leg["iterations"] for leg in report.notes.get("legs", ()))
    assert m["optimize.outer_iters"] == returned


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_level3_counts_are_exact_and_repeat(name, tmp_path):
    first = _traced_call(WORKLOADS[name], tmp_path / "a")[1]
    second = _traced_call(WORKLOADS[name], tmp_path / "b")[1]
    assert _counts(first) == _counts(second) == LEVEL3_COUNTS[name]
    assert first["vtkio.write.bytes"] == second["vtkio.write.bytes"]


def test_workload_checks_pass_at_level3(tmp_path):
    for workload in WORKLOADS.values():
        cfg = make_config(oc, workload, 3, 0, str(tmp_path))
        report = getattr(oc, workload.runner)(cfg)
        checks, quality = workload.check(oc, cfg, report)
        assert checks and quality
        if workload.name != "example2-l5":
            # the reference table is pinned at level 5 only
            assert all(checks.values()), checks


def test_a_wrong_vi_solution_is_incorrect(tmp_path, monkeypatch):
    """A VI solution off by one part in 1e5 fails the convergence check
    and marks the run incorrect."""
    import run

    workload = WORKLOADS["convergence-l8"]
    cfg = make_config(oc, workload, 3, 0, str(tmp_path))
    assert not run._call(oc, workload, cfg)["failed"]
    solve_vi = experiments.solve_vi

    def off(*args, **kwargs):
        sol = solve_vi(*args, **kwargs)
        return dataclasses.replace(sol, u=(1.0 + 1e-5) * sol.u)

    monkeypatch.setattr(experiments, "solve_vi", off)
    outcome = run._call(oc, workload, cfg)
    assert outcome["failed"] and outcome["failing"] == ["error_matches"]


def test_traced_run_prints_a_result_when_a_call_raises(monkeypatch,
                                                       capsys):
    """A solver error inside traced calls leaves spans without a payload;
    the run still counts the failures and prints its result."""
    import run

    original = linsolve.solve_spd

    def failing(*args, **kwargs):
        raise linsolve.SolverError("injected failure")

    for mod in package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                monkeypatch.setattr(mod, attr, failing)
    # main() sets these and prepends the source tree; undo both after
    for var in run.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    assert run.main(["--workload", "example1-l5", "--seed", "0",
                     "--seconds", "0.01", "--trace", "1"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result["correct"] is False
    assert result["attempted"] == result["failed"] == 2
    assert set(result["metrics"]) == {name for name, _ in PER_LAYER}
    assert result["metrics"]["obstacle.pdas_sweeps"]["value"] == 0


def test_benchmark_json_lists_what_the_benchmark_reports():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == list(PER_LAYER)


def test_run_refuses_a_directory_without_the_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "example1-l5",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
