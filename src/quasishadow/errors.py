"""Exception types shared across the package."""


class QuasiShadowError(Exception):
    """Base class for all library errors."""


class ChartError(QuasiShadowError):
    """A point or tangent vector left the valid exponential chart."""


class RateOrderError(QuasiShadowError):
    """Stretch-factor bounds or measurements violate the partially hyperbolic ordering."""


class AdmissibilityError(QuasiShadowError):
    """Pseudo-orbit defect too large for the requested tracing radius."""


class ConvergenceError(QuasiShadowError):
    """Fixed-point iteration escaped its ball or ran out of iterations."""


class SearchError(QuasiShadowError):
    """A near-return or recurrence search exhausted its budget."""


class ConfigError(QuasiShadowError):
    """Invalid experiment configuration."""
