"""Optimal control of an elliptic obstacle problem by its matrix coefficient.

A numpy/scipy library for the obstacle variational inequality, its cubic
penalty regularization, adjoint-based reduced gradients with a log-det
barrier on the admissible coefficient cone, directional derivatives of the
control-to-state map, and the experiment pipelines built on them.
"""

import types as _types

from .errors import (
    CapacityError,
    CoefficientError,
    ConfigError,
    DimensionError,
    NewtonError,
    NonconvergenceError,
    NonFiniteError,
    RunFailure,
    SolverError,
    StagnationError,
)
from .fem import (
    GridSystem,
    ScalarField,
    StructuredMesh,
    assemble_load,
    assemble_stiffness,
    build_mesh,
    interpolate,
    l2_error_vs_function,
    l2_inner,
    l2_norm,
    same_mesh,
)
from .linsolve import LinearSolveReport, solve_spd
from .control import (
    AdmissibilityReport,
    BarrierEval,
    MatrixControlField,
    barrier,
    check_admissible,
    control_inner,
    control_norm,
    project_spectral,
)
from .obstacle import (
    VISolution,
    complementarity_residuals,
    solve_vi,
)
from .penalty import (
    PenaltyConfig,
    penalty_residual_as_multiplier,
    solve_adjoint,
    solve_penalized,
)
from .optimize import (
    GammaLeg,
    ObjectiveConfig,
    OptIterate,
    OptResult,
    gamma_continuation,
    minimize,
    objective_value,
    reduced_gradient,
    solve_vi_adjoint,
    solve_vi_constrained,
    stationarity_residual,
)
from .sensitivity import (
    CriticalCone,
    build_critical_cone,
    cone_derivative,
    derivative_complementarity_check,
    direction_load,
    directional_derivative,
)
from .problems import (
    example_objective,
    initial_control,
    load_density,
    target_coefficient,
    target_state,
)
from .experiments import (
    ExperimentConfig,
    ResultTable,
    RunReport,
    load_config,
    run_convergence,
    run_example1,
    run_example2,
    run_gradcheck,
    run_sensitivity,
)
from .vtkio import write_csv, write_meta, write_structured_vtk

__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_")
           and not isinstance(value, _types.ModuleType)]
__version__ = "0.1.0"
