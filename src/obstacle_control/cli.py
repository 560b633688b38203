"""Command-line interface for the experiment pipelines.

Exit codes: 0 on success, 2 for configuration problems (an output
directory that cannot be written included), 3 when a solver fails or a run
meets operands of mismatched shape, 4 when a validation command finds its
checks violated.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .errors import (
    CapacityError,
    CoefficientError,
    ConfigError,
    DimensionError,
    NewtonError,
    NonconvergenceError,
    NonFiniteError,
    SolverError,
    StagnationError,
)
from .experiments import (
    load_config,
    run_convergence,
    run_example1,
    run_example2,
    run_gradcheck,
    run_sensitivity,
)

_SOLVER_ERRORS = (CapacityError, CoefficientError, DimensionError,
                  NewtonError, NonconvergenceError, NonFiniteError,
                  SolverError, StagnationError)

_COMMANDS = {
    "example1": (run_example1,
                 "obstacle-constrained optimal control on one mesh"),
    "example2": (run_example2,
                 "penalty continuation with errors against the VI optimum"),
    "convergence": (run_convergence,
                    "discretization rates on the manufactured solution"),
    "gradcheck": (run_gradcheck,
                  "adjoint gradient and derivative quotient validation"),
    "sensitivity": (run_sensitivity,
                    "critical-cone directional derivative study"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obstacle-control",
        description="Optimal control of an obstacle problem through its "
                    "matrix diffusion coefficient.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH", default=None,
                       help="key=value parameter file")
        p.add_argument("--out", metavar="DIR", default=None,
                       help="output directory (default: results)")
        p.add_argument("--level", metavar="N", type=int, default=None,
                       help="mesh refinement level")
        p.add_argument("--gamma", metavar="LIST", default=None,
                       help="comma-separated penalty weights")
        p.add_argument("--seed", metavar="N", type=int, default=None,
                       help="random seed for the check commands")
        p.add_argument("overrides", nargs="*", metavar="key=value",
                       help="individual parameter overrides")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        gammas = None if args.gamma is None else tuple(
            float(g) for g in args.gamma.split(",") if g.strip())
        cfg = load_config(args.config, args.overrides,
                          output_dir=args.out, level=args.level,
                          seed=args.seed, gamma_list=gammas,
                          gamma=gammas[0] if len(gammas or ()) == 1
                          else None)
    except (ConfigError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2

    runner = _COMMANDS[args.command][0]
    try:
        report = runner(cfg)
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"configuration error: cannot write output: {exc}",
              file=sys.stderr)
        return 2

    for path in report.outputs:
        print(f"wrote {path}")
    if report.table is not None:
        print("gamma,err_u_L2,err_q_L2")
        for gamma, err_u, err_q in report.table.rows:
            print(f"{gamma:g},{err_u:.6e},{err_q:.6e}")
    if not report.passed:
        print("checks failed", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
