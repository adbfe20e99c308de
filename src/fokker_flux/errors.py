"""Exception types raised by the solvers and the CLI."""


class FokkerFluxError(Exception):
    """Base class for all package errors."""


class ConfigError(FokkerFluxError):
    """Input failed validation: a run configuration, or one of the values it
    builds. The CLI exits 2 on it and on every subclass."""


class InvalidGridError(ConfigError):
    """Grid construction parameters are invalid."""


class ShapeError(ConfigError):
    """Tabulated data does not match the grid."""


class InvalidModelError(ConfigError):
    """Model parameters violate the standing assumptions."""


class InvalidInitialError(ConfigError):
    """Initial data violates the model's positivity/box constraint."""


class StabilityError(ConfigError):
    """Explicit time step exceeds the stability bound."""


class DivergenceError(FokkerFluxError):
    """Non-finite values appeared during time stepping.

    When raised from a run, carries the index and the physical time of the
    step at which the non-finite value was first seen.
    """

    def __init__(self, message: str, step: int | None = None, time: float | None = None):
        super().__init__(message)
        self.step = step
        self.time = time


class StepFailureError(FokkerFluxError):
    """Implicit step did not converge.

    Carries the last Newton residual norm and, when raised from a run,
    the physical time of the failing step.
    """

    def __init__(self, message: str, residual: float, time: float | None = None):
        super().__init__(message)
        self.residual = residual
        self.time = time


class EntropyDomainError(FokkerFluxError):
    """Field values outside the domain of the requested entropy."""


class UndefinedConstantError(FokkerFluxError):
    """An inequality constant is undefined for the given fields."""


class FitError(FokkerFluxError):
    """Exponential-rate fit preconditions are not met."""


class RootNotFoundError(FokkerFluxError):
    """A Robin equation has no bracketed smallest root (invalid or non-finite weights)."""


class IterationError(FokkerFluxError):
    """An iterative solver stagnated before reaching its tolerance."""
