"""Exception types shared across the package."""

__all__ = [
    "CmcLabError", "NonPositiveMetric", "NonPositiveLapse", "SolverDiverged",
    "DegenerateZeroOrderTerm", "BoundViolation", "CmcDriftExceeded", "InvalidKasner",
    "EmptyHistory", "SinkError", "ParseError", "ValidationError",
]


class CmcLabError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveMetric(CmcLabError):
    """A metric field failed to be positive definite somewhere on the grid."""


class NonPositiveLapse(CmcLabError):
    """A lapse field is non-positive somewhere on the grid."""


class SolverDiverged(CmcLabError):
    """The elliptic solver ran out of budget, or stalled at its rounding floor, above tolerance."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateZeroOrderTerm(CmcLabError):
    """The lapse operator's zero-order coefficient |K|^2 vanishes somewhere.

    Happens on maximal (H = 0) slices, where the operator loses positivity.
    """


class BoundViolation(CmcLabError):
    """A maximum-principle bound on the lapse failed beyond tolerance."""

    def __init__(self, message, margins=None):
        super().__init__(message)
        self.margins = margins


class CmcDriftExceeded(CmcLabError):
    """The trace of K drifted from the CMC time label beyond tolerance."""


class InvalidKasner(CmcLabError):
    """Kasner exponents violate p1+p2+p3 = 1 or p1^2+p2^2+p3^2 = 1."""


class EmptyHistory(CmcLabError):
    """A time-series operation received no records."""


class SinkError(CmcLabError):
    """Writing diagnostics records to a sink failed."""


class ParseError(CmcLabError):
    """A config file line could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(CmcLabError):
    """A configuration value violates an invariant."""
