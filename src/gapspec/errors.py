"""Exception types shared across the package.

Every failure mode that a caller can recover from gets its own class so the
CLI can name it on exit. All inherit from GapspecError.
"""


class GapspecError(Exception):
    """Base class for all package errors."""


class DomainError(GapspecError):
    """Argument outside the domain an operator or map is defined on."""


class QuadratureNotConverged(GapspecError):
    """Adaptive quadrature refinements failed to settle at the target."""


class BoundOutOfRange(GapspecError):
    """Energy exceeds the range the amplitude bound is tabulated for."""


class SeriesRadiusExceeded(GapspecError):
    """Requested start point is outside the series' validity radius."""


class StepSizeUnderflow(GapspecError):
    """Adaptive integrator step fell below the representable minimum."""


class TailNotAsymptotic(GapspecError):
    """Potential has not reached its asymptote at the requested tail point."""


class FitUnreliable(GapspecError):
    """Threshold fit residual exceeds the acceptance level."""


class InconsistentCertificate(GapspecError):
    """Oscillation count and Wronskian matching disagree at an eigenvalue."""


class EigenvalueMissing(GapspecError):
    """An expected gap eigenvalue was not found."""


class NoEigenmode(GapspecError):
    """Eigenmode initial data requested where the operator has no eigenvalue."""


class CFLViolation(GapspecError):
    """Time step exceeds the stability limit of the explicit scheme."""


class TooFewSamples(GapspecError):
    """Probe series too short for a meaningful spectrum."""
