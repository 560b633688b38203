"""Exception types shared across the package."""


class CapacityError(Exception):
    """Requested discretization exceeds the configured memory guard."""


class CoefficientError(Exception):
    """Matrix coefficient violates positive definiteness where required."""


class DimensionError(ValueError):
    """Operands live on different meshes or have incompatible shapes."""


class NonFiniteError(ValueError):
    """Field data holds NaN or infinite values."""


class SolverError(RuntimeError):
    """Iterative linear solver failed to converge within its iteration cap."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class NonconvergenceError(RuntimeError):
    """Active-set iteration cycled or exceeded its iteration budget."""

    def __init__(self, message, active_sets=None):
        super().__init__(message)
        # last two active sets, for post-mortem inspection
        self.active_sets = active_sets


class NewtonError(RuntimeError):
    """Newton iteration diverged; carries the residual-norm history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history) if history is not None else []


class StagnationError(RuntimeError):
    """Descent loop stopped without a certified stationary point: the line
    search hit the step floor, no new minimum came in a run of accepted
    steps, or the residual test was met above the best accepted objective.
    Carries the iterate history."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = history


class ConfigError(Exception):
    """Experiment configuration is malformed or contains unknown keys."""
