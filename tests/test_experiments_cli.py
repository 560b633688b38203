"""Experiment pipeline and CLI tests: config parsing, artifact formats,
runner behavior, determinism, and exit codes."""

import json
import os
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from obstacle_control import (
    ConfigError,
    DimensionError,
    ExperimentConfig,
    ResultTable,
    RunFailure,
    build_mesh,
    control_norm,
    example_objective,
    l2_norm,
    load_config,
    run_convergence,
    run_example1,
    run_example2,
    run_gradcheck,
    run_sensitivity,
    write_csv,
    write_meta,
    write_structured_vtk,
)
from obstacle_control import cli, errors, problems
from obstacle_control.experiments import RunReport, parse_config_text, \
    parse_field

from conftest import read_structured_vtk
from test_fem import desired_state, manufactured_load, q_d_components

SEED = 1105


def small_config(tmp_path, *overrides):
    return load_config(None, overrides, output_dir=str(tmp_path), level=3)


# ------------------------------------------------------------- config


def test_config_defaults_match_benchmark():
    cfg = ExperimentConfig()
    assert cfg.level == 5
    assert cfg.alpha == 0.1 and cfg.beta == 1e-4
    assert cfg.psi == 0.5
    assert (cfg.q_min, cfg.q_max) == (0.5, 10.0)
    assert cfg.q_init == (2.0, -1.0, 2.0)
    assert cfg.gamma_list == (1e0, 1e3, 1e6, 1e9, 1e12)


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_config_default_parses_back(name):
    """Every key parses its default, written as key=value text, back to
    the same value and type."""
    default = getattr(ExperimentConfig(), name)
    text = (",".join(map(str, default)) if isinstance(default, tuple)
            else str(default))
    parsed = getattr(load_config(None, [f"{name}={text}"]), name)
    assert repr(parsed) == repr(default)


def test_readme_lists_every_config_key_with_its_default():
    """The README's key list names exactly the config's fields, and each
    default it states parses to the config's default, so a key cannot
    come or go without its docs."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    start = readme.index("Config keys and defaults:")
    text = readme[start:readme.index("Each default is stated once", start)]
    listed = dict(item.split("=", 1) for item in re.findall(
        r"`([a-z_]+=[^`]*)`", text))
    default = ExperimentConfig()
    assert sorted(listed) == sorted(f.name for f in fields(default))
    for key, value in listed.items():
        assert parse_field(key, value) == getattr(default, key), key


@pytest.mark.parametrize("override", [
    "level=0",
    "alpha=0",
    "beta=-1",
    "psi=0",
    "q_min=10,",
    "q_min=11",
    "c=-1",
    "newton_tol=1e-11",
    "q_init=1,2",
    "gamma_list=1e3,1e0",
    "gamma_list=",
    "levels=4,3",
    "level=13",
    "levels=3,13",
    "max_iters=0",
    "max_iters=2000",
    "seed=-1",
    "psi=nan",
    "alpha=nan",
    "gamma=nan",
    "grad_tol=inf",
    "grad_tol=1e-8",
    "q_max=inf",
    "gamma_list=1e0,nan",
    "q_init=2,nan,2",
    "alpha=abc",
    "level=2.5",
    "no_such_key=1",
    "malformed",
])
def test_config_rejects_bad_values(override):
    with pytest.raises(ConfigError):
        load_config(None, [override])


def test_config_file_and_override_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# benchmark parameters\n"
        "level = 4\n"
        "alpha = 0.2   # inline comment\n"
        "\n"
        "gamma_list = 1e0, 1e2\n")
    cfg = load_config(path)
    assert cfg.level == 4 and cfg.alpha == 0.2
    assert cfg.gamma_list == (1.0, 100.0)
    cfg = load_config(path, ["alpha=0.3"], level=6)
    assert cfg.alpha == 0.3  # override beats file
    assert cfg.level == 6  # direct keyword beats both
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.cfg")


def test_parse_config_text_unknown_key():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config_text("nonsense = 1\n")


def test_config_errors_name_their_source():
    with pytest.raises(ConfigError, match="line 2: expected key=value"):
        parse_config_text("level = 4\nlevel 4\n")
    with pytest.raises(ConfigError, match="override 'level' is not"):
        load_config(None, ["level"])
    with pytest.raises(ConfigError, match="no_such_key"):
        load_config(None, [], no_such_key=1)


def test_result_table_requires_ascending_gamma():
    with pytest.raises(ValueError):
        ResultTable(rows=((1e3, 1.0, 1.0), (1e0, 2.0, 2.0)))


def test_problem_data_matches_reference_formulas():
    # package-shipped example data against the independently written
    # formulas the discretization tests verify symbolically
    rng = np.random.default_rng(SEED)
    x, y = rng.uniform(-1, 1, (2, 64))
    assert np.allclose(problems.load_density(x, y), manufactured_load(x, y),
                       rtol=1e-15)
    assert np.allclose(problems.target_state(x, y), desired_state(x, y),
                       rtol=1e-15)
    for got, want in zip(problems.target_coefficient(x, y),
                         q_d_components(x, y)):
        assert np.allclose(got, want, rtol=1e-15)


# ------------------------------------------------------------- file IO


def test_vtk_round_trip(tmp_path):
    mesh = build_mesh(3)
    rng = np.random.default_rng(SEED)
    fields = {name: rng.standard_normal(mesh.n_nodes)
              for name in ("u", "lambda", "q11", "q22", "q12")}
    path = write_structured_vtk(tmp_path / "fields.vtk", mesh, fields)
    points, data = read_structured_vtk(path)
    assert np.array_equal(points, mesh.nodes)
    assert list(data) == list(fields)
    for name in fields:
        assert np.abs(data[name] - fields[name]).max() <= 1e-15


def test_vtk_points_depend_on_the_level_alone(tmp_path):
    """Writes on two mesh objects of one level, with a write at another
    level between them, give the same bytes; the POINTS block holds every
    node in 17 significant digits."""
    meshes = (build_mesh(3), build_mesh(2), build_mesh(3))
    paths = [write_structured_vtk(tmp_path / f"{k}.vtk", mesh,
                                  {"u": np.linspace(0.0, 1.0, mesh.n_nodes)})
             for k, mesh in enumerate(meshes)]
    assert paths[0].read_bytes() == paths[2].read_bytes()
    for path, mesh in zip(paths[:2], meshes):
        lines = path.read_text().splitlines()
        assert lines[6:6 + mesh.n_nodes] == [
            f"{format(x, '.17g')} {format(y, '.17g')} 0"
            for x, y in mesh.nodes]


def test_vtk_fields_format_as_per_value_reference(tmp_path):
    """One format per field gives the bytes of formatting each value
    alone, signed zero, subnormals and the largest doubles included."""
    mesh = build_mesh(2)
    u = np.linspace(-1.0, 1.0, mesh.n_nodes)
    u[:5] = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
             -1.7976931348623157e308]
    fields = {"u": u, "v": np.exp(u[::-1] % 7.0)}
    path = write_structured_vtk(tmp_path / "f.vtk", mesh, fields)
    lines = path.read_text().split("\n")
    assert lines[-1] == ""
    for name, values in fields.items():
        start = lines.index(f"SCALARS {name} double 1") + 2
        assert lines[start:start + mesh.n_nodes] == [
            format(float(v), ".17g") for v in values]
    assert lines[start + mesh.n_nodes:] == [""]


def test_vtk_header_layout(tmp_path):
    mesh = build_mesh(2)
    path = write_structured_vtk(tmp_path / "f.vtk", mesh,
                                {"u": np.zeros(mesh.n_nodes)})
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET STRUCTURED_GRID"
    assert lines[4] == "DIMENSIONS 5 5 1"
    assert lines[5] == f"POINTS {mesh.n_nodes} double"
    assert f"POINT_DATA {mesh.n_nodes}" in lines
    assert "SCALARS u double 1" in lines


def test_csv_write_is_atomic_and_deterministic(tmp_path):
    rows = [(1.0, 0.25, 1 / 3), (1000.0, 0.125, 2 / 3)]
    p1 = write_csv(tmp_path / "a.csv", ["gamma", "err_u_L2", "err_q_L2"],
                   rows)
    p2 = write_csv(tmp_path / "b.csv", ["gamma", "err_u_L2", "err_q_L2"],
                   rows)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "gamma,err_u_L2,err_q_L2"
    # no temporary leftovers
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a.csv", "b.csv"]
    # 17 significant digits round-trip doubles exactly
    back = [float(v) for v in p1.read_text().splitlines()[1].split(",")]
    assert back == list(rows[0])


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                         ids=["umask022", "umask077"])
def test_written_files_get_the_mode_of_a_plain_open(tmp_path, umask, mode):
    """Every writer leaves 0666 less the umask, as open(path, "w") would,
    and no temporary file behind."""
    mesh = build_mesh(1)
    old = os.umask(umask)
    try:
        paths = [write_csv(tmp_path / "t.csv", ["a"], [(1.0,)]),
                 write_meta(tmp_path / "meta.json", {"a": 1}),
                 write_structured_vtk(tmp_path / "f.vtk", mesh,
                                      {"u": np.zeros(mesh.n_nodes)})]
    finally:
        os.umask(old)
    assert [p.stat().st_mode & 0o777 for p in paths] == [mode] * 3
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "f.vtk", "meta.json", "t.csv"]


# ------------------------------------------------------------- runners


def assert_meta_is_notes(rep, cfg, outdir):
    """The runner's last output is outdir/meta.json: every config field as
    "parameters", its start and finish times, and the report's notes."""
    path = outdir / "meta.json"
    assert rep.outputs[-1] == path
    meta = json.loads(path.read_text())
    params = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    assert meta["parameters"] == json.loads(json.dumps(params))
    assert meta["started"] <= meta["finished"]
    assert meta == json.loads(json.dumps(rep.notes, default=str))


def test_example1_contact_and_artifacts(tmp_path):
    cfg = small_config(tmp_path)
    rep = run_example1(cfg)
    assert rep.passed and rep.result.converged
    outdir = tmp_path / "example1"
    assert_meta_is_notes(rep, cfg, outdir)
    assert (outdir / "solution.vtk").is_file()
    assert (outdir / "log.csv").is_file()
    meta = json.loads((outdir / "meta.json").read_text())
    assert meta["contact_nodes"] > 0
    assert meta["barrier_violations"] == 0
    assert meta["multiplier_ratio"] <= 4.5
    _, data = read_structured_vtk(outdir / "solution.vtk")
    assert data["lambda"].max() > 0.0
    assert data["u"].max() <= 0.5 + 1e-10
    log_lines = (outdir / "log.csv").read_text().splitlines()
    assert len(log_lines) == 2 + rep.result.iterations


def test_example1_without_obstacle_recovers_targets(tmp_path):
    rep = run_example1(small_config(tmp_path, "psi=1e6"))
    res = rep.result
    obj = example_objective(res.u.mesh)
    assert rep.notes["contact_nodes"] == 0
    assert l2_norm(res.u - obj.u_d) <= 2e-2
    assert control_norm(res.q - obj.q_d) <= 5e-2 * control_norm(obj.q_d)


def test_example2_errors_decrease(tmp_path):
    cfg = small_config(tmp_path, "gamma_list=1e0,1e3,1e6,1e9")
    rep = run_example2(cfg)
    assert rep.passed
    rows = rep.table.rows
    assert [r[0] for r in rows] == [1e0, 1e3, 1e6, 1e9]
    err_u = [r[1] for r in rows]
    err_q = [r[2] for r in rows]
    assert all(b < a for a, b in zip(err_u, err_u[1:]))
    assert all(b < a for a, b in zip(err_q, err_q[1:]))
    assert rep.notes["barrier_violations"] == 0
    outdir = tmp_path / "example2"
    assert (outdir / "table.csv").is_file()
    assert (outdir / "reference.vtk").is_file()
    for gamma in ("1e+00", "1e+03", "1e+06", "1e+09"):
        assert (outdir / f"solution_gamma_{gamma}.vtk").is_file()
    assert_meta_is_notes(rep, cfg, outdir)


def test_example2_reruns_byte_identical(tmp_path):
    texts = []
    for sub in ("one", "two"):
        cfg = load_config(None, ["gamma_list=1e0,1e3"],
                          output_dir=str(tmp_path / sub), level=3)
        run_example2(cfg)
        texts.append((tmp_path / sub / "example2" / "table.csv").read_bytes())
    assert texts[0] == texts[1]


def test_convergence_rate_without_contact(tmp_path):
    cfg = load_config(None, ["psi=1e6", "levels=3,4,5"],
                      output_dir=str(tmp_path))
    rep = run_convergence(cfg)
    assert rep.notes["contact"] is False
    assert_meta_is_notes(rep, cfg, tmp_path / "convergence")
    assert all(rate >= 1.9 for rate in rep.notes["rates"])
    lines = (tmp_path / "convergence" / "rates.csv").read_text().splitlines()
    assert lines[0] == "level,h,err_L2,rate"
    assert len(lines) == 4
    assert lines[1].endswith(",")  # first row carries no rate


def test_convergence_single_level_and_contact(tmp_path):
    cfg = load_config(None, ["levels=3"], output_dir=str(tmp_path))
    rep = run_convergence(cfg)
    assert rep.notes["rates"] == []
    lines = (tmp_path / "convergence" / "rates.csv").read_text().splitlines()
    assert len(lines) == 2
    # with the obstacle engaged the run still reports, asserts nothing
    cfg = load_config(None, ["levels=3,4"], output_dir=str(tmp_path))
    rep = run_convergence(cfg)
    assert rep.passed and rep.notes["contact"] is True
    # the sweeps of each level's own PDAS loop, in meta.json only
    meta = json.loads((tmp_path / "convergence" / "meta.json").read_text())
    assert len(meta["pdas_sweeps"]) == 2
    assert all(isinstance(n, int) and n >= 1 for n in meta["pdas_sweeps"])
    lines = (tmp_path / "convergence" / "rates.csv").read_text().splitlines()
    assert lines[0] == "level,h,err_L2,rate"


def test_gradcheck_passes(tmp_path):
    cfg = load_config(None, ["seed=7"], output_dir=str(tmp_path), level=3)
    rep = run_gradcheck(cfg)
    assert rep.passed
    assert rep.notes["max_rel_error"] <= 1e-4
    assert 2.0 <= rep.notes["halving_ratio"] <= 8.0
    assert rep.notes["zero_direction_pass"]
    outdir = tmp_path / "gradcheck"
    assert (outdir / "adjoint_fd.csv").is_file()
    assert (outdir / "quotients.csv").is_file()
    assert_meta_is_notes(rep, cfg, outdir)


def test_sensitivity_passes(tmp_path):
    cfg = load_config(None, ["seed=7"], output_dir=str(tmp_path), level=3)
    rep = run_sensitivity(cfg)
    assert rep.passed
    assert rep.notes["zero_nodes"] > 0
    assert rep.notes["worst_residual"] <= 1e-8
    counts = (rep.notes["zero_nodes"] + rep.notes["nonpositive_nodes"]
              + rep.notes["free_nodes"])
    mesh = build_mesh(3)
    assert counts == int(mesh.interior_mask.sum())
    assert_meta_is_notes(rep, cfg, tmp_path / "sensitivity")


# ------------------------------------------------------------- CLI


def test_cli_success_exit_zero(tmp_path, capsys):
    code = cli.main(["convergence", "--out", str(tmp_path), "--level", "3",
                     "psi=1e6", "levels=3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rates.csv" in out


def test_cli_config_error_exit_two(tmp_path, capsys):
    code = cli.main(["example1", "--out", str(tmp_path), "bogus=1"])
    assert code == 2
    assert "configuration error" in capsys.readouterr().err
    code = cli.main(["example2", "--out", str(tmp_path), "--gamma",
                     "1e3,1e0"])
    assert code == 2
    # an empty --gamma list, non-finite values and a level past the memory
    # guard fail before any output
    for args in (["--gamma", ","], ["psi=nan"], ["grad_tol=inf"],
                 ["q_max=inf"], ["--level", "13"]):
        code = cli.main(["example1", "--out", str(tmp_path), "--level", "3",
                         *args])
        assert code == 2
    assert cli.main(["convergence", "--out", str(tmp_path),
                     "levels=3,13"]) == 2
    assert not any(tmp_path.iterdir())


def test_cli_solver_failure_exit_three(tmp_path, capsys):
    # eigenvalues of the starting control sit below q_min
    code = cli.main(["example1", "--out", str(tmp_path), "--level", "3",
                     "q_init=0.1,0,0.1"])
    assert code == 3
    assert "solver failure" in capsys.readouterr().err


def test_cli_dimension_error_in_runner_exit_three(monkeypatch, capsys):
    def mismatched(cfg):
        raise DimensionError("fields live on different meshes")

    monkeypatch.setitem(cli._COMMANDS, "example1", (mismatched, "stub"))
    assert cli.main(["example1"]) == 3
    assert "solver failure: fields live on different meshes" \
        in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, Exception)
    and cls is not ConfigError], ids=lambda cls: cls.__name__)
def test_cli_every_run_failure_in_runner_exit_three(error, monkeypatch,
                                                    capsys):
    """Every exception of the package but ConfigError is a RunFailure,
    which the CLI maps to exit 3 without a list of classes to keep."""
    def failing(cfg):
        raise error("stub failure")

    assert issubclass(error, RunFailure)
    monkeypatch.setitem(cli._COMMANDS, "example1", (failing, "stub"))
    assert cli.main(["example1"]) == 3
    assert "solver failure: stub failure" in capsys.readouterr().err


def test_cli_unwritable_output_dir_exit_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("not a directory")
    code = cli.main(["convergence", "--out", str(blocker / "out"),
                     "--level", "1", "levels=1"])
    assert code == 2
    err = capsys.readouterr().err
    assert "configuration error: cannot write output" in err
    assert "Traceback" not in err


def test_cli_check_failure_exit_four(tmp_path, monkeypatch, capsys):
    def failing_runner(cfg):
        return RunReport(passed=False)

    monkeypatch.setitem(cli._COMMANDS, "gradcheck",
                        (failing_runner, "stub"))
    code = cli.main(["gradcheck", "--out", str(tmp_path)])
    assert code == 4
    assert "checks failed" in capsys.readouterr().err


def test_cli_gamma_flag_sets_list_and_single(tmp_path):
    cfg = load_config(None, [], gamma_list=(1e2,), gamma=1e2)
    assert cfg.gamma == 1e2 and cfg.gamma_list == (1e2,)
    code = cli.main(["sensitivity", "--out", str(tmp_path), "--level", "3",
                     "--gamma", "1e2", "--seed", "3"])
    assert code == 0


def test_cli_gamma_flag_parses_as_the_gamma_list_key(tmp_path, capsys):
    """--gamma goes through the config's own parser: a bad entry gets the
    message of gamma_list=, and a list still runs its legs."""
    for args in (["--gamma", "abc"], ["gamma_list=abc"]):
        code = cli.main(["example2", "--out", str(tmp_path), *args])
        assert code == 2
        assert capsys.readouterr().err \
            == "configuration error: not a number: 'abc'\n"
    assert not any(tmp_path.iterdir())
    assert cli.main(["example2", "--out", str(tmp_path), "--level", "2",
                     "--gamma", "1e0,1e3"]) == 0
    rows = capsys.readouterr().out.split("gamma,err_u_L2,err_q_L2\n")[1]
    assert [row.split(",")[0] for row in rows.splitlines()] == ["1", "1000"]


# The subcommands in the README's "Subcommands" table. Listed here as well
# as read from cli._COMMANDS, so that a command dropped from the CLI fails.
DOCUMENTED_COMMANDS = ("example1", "example2", "convergence", "gradcheck",
                       "sensitivity")

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SRC_DIR = Path(cli.__file__).resolve().parents[1]


def _run_help(argv, pythonpath):
    """Run ``argv --help`` with a fixed terminal width; check and return
    the help text."""
    env = dict(os.environ, COLUMNS="80", PYTHONPATH=pythonpath)
    proc = subprocess.run([*argv, "--help"], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: obstacle-control")
    listed = {line.split()[0] for line in proc.stdout.splitlines()
              if line.strip()}
    missing = (set(cli._COMMANDS) | set(DOCUMENTED_COMMANDS)) - listed
    assert not missing, proc.stdout
    return proc.stdout


def test_console_script_installed():
    """The ``obstacle-control`` command declared in pyproject.toml starts
    the CLI. The declared target is run the way pip's console-script
    wrapper runs it, so this holds from a source checkout; a script
    installed on PATH must print the same help."""
    other_paths = [p for p in os.environ.get("PYTHONPATH", "").split(
        os.pathsep) if p and Path(p).resolve() != SRC_DIR]
    installed_help = None
    script = shutil.which("obstacle-control")
    if script is not None:
        # without this checkout's src on the path the script imports the
        # package it was installed with, so an install from elsewhere shows
        installed_help = _run_help([script], os.pathsep.join(other_paths))

    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["obstacle-control"]
    module, _, attr = target.partition(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    declared_help = _run_help([sys.executable, "-c", wrapper],
                              os.pathsep.join([str(SRC_DIR), *other_paths]))
    if installed_help is not None:
        assert installed_help == declared_help
