"""Exception types shared across the package."""


class RunFailure(Exception):
    """Bad operands or a failed solve: the CLI exits 3 on any subclass."""


class CapacityError(RunFailure):
    """Requested discretization exceeds the mesh level cap fem.MAX_LEVEL."""


class CoefficientError(RunFailure):
    """Matrix coefficient violates positive definiteness where required."""


class DimensionError(RunFailure, ValueError):
    """Operands live on different meshes or have incompatible shapes."""


class NonFiniteError(RunFailure, ValueError):
    """Field data holds NaN or infinite values."""


class SolverError(RunFailure, RuntimeError):
    """Linear solve failed: a non-finite right-hand side or initial guess,
    a nonpositive diagonal, a failed coarsest-grid Cholesky factor,
    nonpositive CG curvature, CG's iteration cap, or a missed mass
    residual. Carries the solve's report where there is one."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonconvergenceError(RunFailure, RuntimeError):
    """Active-set iteration cycled or exceeded its iteration budget."""

    def __init__(self, message, active_sets=None):
        super().__init__(message)
        # last two active sets, for post-mortem inspection
        self.active_sets = active_sets


class NewtonError(RunFailure, RuntimeError):
    """Newton iteration diverged; carries the residual-norm history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class StagnationError(RunFailure, RuntimeError):
    """Descent loop stopped without a certified stationary point: the line
    search hit the step floor, no new minimum came in a run of accepted
    steps, or the residual test was met above the best accepted objective.
    Carries the iterate history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class ConfigError(Exception):
    """Experiment configuration is malformed or contains unknown keys."""
