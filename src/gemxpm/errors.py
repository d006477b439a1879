"""Exception types shared across the package."""


class GemXpmError(Exception):
    """Base class for solver and protocol failures."""


class ConfigError(GemXpmError):
    """Invalid or unparseable experiment configuration.

    ``path`` names the offending config segment (dot-separated).  Every
    constructor argument is passed on to ``Exception`` so that the error
    survives a pickle round trip (a sweep worker's error reaches the parent).
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(path, message)

    def __str__(self) -> str:
        return f"config error at '{self.path}': {self.args[1]}"


class StabilityError(GemXpmError):
    """Explicit time step too large for the stiffest rate in the run."""

    def __init__(self, dt: float, dt_required: float):
        self.dt = dt
        self.dt_required = dt_required
        super().__init__(dt, dt_required)

    def __str__(self) -> str:
        return (f"time step dt={self.dt:.3e} exceeds the stability limit; "
                f"required dt <= {self.dt_required:.3e}")


class NumericalError(GemXpmError):
    """NaN contamination, trace drift, or other mid-run numerical failure."""


class ProtocolError(GemXpmError):
    """Gradient/coupling switching pattern violates the requested protocol."""


class UndefinedPhaseError(GemXpmError):
    """Conditional phase requested where a reference coherence vanishes."""


class LeakageError(GemXpmError):
    """Channel leaked too much weight out of the qubit subspace."""

    def __init__(self, message: str, leakage_report=None):
        self.leakage_report = leakage_report
        super().__init__(message)


class ProjectionError(GemXpmError):
    """State has essentially no weight left in the projected subspace."""
