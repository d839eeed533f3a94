"""Exception taxonomy shared across the package.

Each class marks one failure mode of the geometric/numeric pipeline so
callers can react to (say) a bad cutoff window differently from a Newton
solve that stalled.
"""


class VirbottError(Exception):
    """Base class for all package-specific errors."""


class DomainError(VirbottError, ValueError):
    """Input outside the mathematical domain of an operation
    (bad cutoff window, an angular link of uncertified orientation,
    grid too coarse, plane box not containing the unit disc, ...)."""


class ConvergenceError(VirbottError, RuntimeError):
    """An iterative solve (bisection/Newton inversion) failed to reach
    its tolerance within the iteration cap."""


class UnsupportedError(VirbottError, RuntimeError):
    """Operation not available for this object (e.g. closed-form
    inversion of a flow link)."""


class DegenerateError(VirbottError, RuntimeError):
    """A Jacobian was singular or orientation-reversing where the
    construction requires a diffeomorphism."""


class NotBoundaryTrivialError(VirbottError, ValueError):
    """A map claimed to be the identity near the boundary circle is not."""


class DimensionError(VirbottError, ValueError):
    """Form/matrix arguments had inconsistent or unsupported dimensions."""


class NumericError(VirbottError, RuntimeError):
    """A quadrature or evaluation produced non-finite values."""


class SupportError(VirbottError, RuntimeError):
    """An integrand that must be compactly supported inside the chart box
    is still visibly nonzero at the box edge."""


class StepError(VirbottError, RuntimeError):
    """Finite-difference step produced a non-invertible or unusable
    configuration."""


class ConfigError(VirbottError, ValueError):
    """Suite/CLI configuration is inconsistent or incomplete."""


class HarmonicCapError(VirbottError, ValueError):
    """A trigonometric-polynomial operation would exceed the configured
    maximum harmonic."""
