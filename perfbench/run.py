"""Benchmark of the obstacle-control solver stack.

Run from the repository root:

    python3 perfbench/run.py --workload example1-l5 --seed 0 --seconds 20 \
        --trace 0

One process runs one workload in a closed loop: it calls the workload's
public runner in ``obstacle_control.experiments`` again and again, each
call after the previous one has finished and its outputs have been
checked, until ``--seconds`` have passed (at least one call). BLAS pools
get one thread: the dense kernels here work on vectors of at most ~17k
entries, where a second thread only adds synchronization and noise.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the calls of the run). With
``--trace 1`` untraced and traced calls alternate, and the object carries
the per-layer metrics instead (medians over the traced calls);
``trace.overhead_s`` is the median traced minus the median untraced wall
time.
The line before it is the run record: environment, every output check,
and the accuracy figures. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracer import PER_LAYER, Tracer, layer_metrics
from workloads import WORKLOADS, make_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_PROBES = 9
WARMUP_LEVEL = 3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))
# every end-to-end figure of the run record; the accuracy ones exist only
# on the workloads that compute them and are null elsewhere
RECORD_UNITS = dict(END_TO_END, fail_share="ratio", objective="1",
                    err_u_final="1", err_q_final="1",
                    table_factor_max="ratio", error_l2="1")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _setup_seconds(level: int) -> list:
    """Cold set-up times, each from a fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC),
             str(level)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]
        blas = {k: deps["blas"].get(k) for k in ("name", "version")}
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "nproc": _nproc(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def _call(oc, workload, cfg) -> dict:
    """One timed runner call plus its output checks; never raises."""
    outcome = {"seconds": 0.0, "checks": {}, "quality": {}, "error": None}
    start = time.perf_counter()
    try:
        report = getattr(oc, workload.runner)(cfg)
        outcome["seconds"] = time.perf_counter() - start
        outcome["checks"], outcome["quality"] = workload.check(oc, cfg,
                                                               report)
    except Exception:  # a failing run is counted, not fatal
        outcome["seconds"] = outcome["seconds"] or \
            time.perf_counter() - start
        outcome["error"] = traceback.format_exc(limit=4)
    failing = [name for name, ok in outcome["checks"].items() if not ok]
    outcome["failed"] = bool(failing) or outcome["error"] is not None
    outcome["failing"] = failing
    return outcome


def _record(args, workload, env, plain, traced, setup, wall) -> dict:
    calls = plain + traced
    failed = sum(c["failed"] for c in calls)
    quality = {}
    for c in calls:
        quality.update(c["quality"])
    values = dict(quality, wall_s=wall, setup_s=statistics.median(setup),
                  peak_rss_mb=_peak_rss_mb(), fail_share=failed / len(calls))
    checks = {}
    for c in calls:
        for name, ok in c["checks"].items():
            passed, total = checks.get(name, (0, 0))
            checks[name] = (passed + ok, total + 1)
    return {
        "workload": workload.name,
        "level": workload.level,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "calls": len(calls),
        "wall_s_samples": [c["seconds"] for c in plain],
        "traced_s_samples": [c["seconds"] for c in traced],
        "setup_s_samples": setup,
        "end_to_end": {name: {"value": values.get(name), "unit": unit}
                       for name, unit in RECORD_UNITS.items()},
        "checks_passed": {name: f"{p}/{t}" for name, (p, t)
                          in checks.items()},
        "errors": [c["error"] for c in calls if c["error"]],
    }


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _measure(oc, workload, cfg, seconds: float, trace: bool):
    """Closed loop of runner calls; with ``trace`` every untraced call is
    followed by a traced one. Returns (untraced calls, traced calls,
    per-layer samples of the traced calls)."""
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_call(oc, workload, cfg))
        if trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(_call(oc, workload, cfg))
            layers.append(layer_metrics(tracer.spans))
        if time.perf_counter() - start >= seconds:
            return plain, traced, layers


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "obstacle_control" / "__init__.py").is_file():
        print(f"perfbench: no package source under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import obstacle_control as oc

    if not Path(oc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: imported {oc.__file__}, not the checkout's "
              f"source", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        env = _environment(args.seed)
        setup = _setup_seconds(workload.level)
        warm = _call(oc, workload, make_config(
            oc, workload, WARMUP_LEVEL, args.seed, str(WORK / "warmup")))
        cfg = make_config(oc, workload, workload.level, args.seed,
                          str(WORK / "run"))
        plain, traced, layers = _measure(oc, workload, cfg, args.seconds,
                                         bool(args.trace))
        calls = plain + traced
        wall = statistics.median(c["seconds"] for c in plain)
        if args.trace:
            metrics = {name: statistics.median(s[name] for s in layers)
                       for name, _ in PER_LAYER}
            metrics["trace.overhead_s"] = statistics.median(
                c["seconds"] for c in traced) - wall
            units = dict(PER_LAYER)
        else:
            metrics = {"wall_s": wall,
                       "setup_s": statistics.median(setup),
                       "peak_rss_mb": _peak_rss_mb()}
            units = dict(END_TO_END)
        record = _record(args, workload, env, plain, traced, setup, wall)
        if warm["error"]:
            record["warmup_error"] = warm["error"]
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not any(c["failed"] for c in calls),
        "attempted": len(calls),
        "failed": sum(c["failed"] for c in calls),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
