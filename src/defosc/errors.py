"""Exception types shared across the package."""


class DefoscError(Exception):
    """Base class for all package errors."""


class ParameterDomainError(DefoscError, ValueError):
    """A parameter lies outside its admissible domain."""


class DegenerateParameterError(DefoscError, ValueError):
    """Parameters make a required denominator or Pochhammer factor vanish."""


class NonPositiveDefiniteError(DefoscError, ValueError):
    """A product A_{n-1}*C_n is negative, so no real oscillator exists."""


class UnknownFamilyError(DefoscError, KeyError):
    """Requested family name is not registered."""

    def __str__(self) -> str:
        # KeyError.__str__ would quote the message as the repr of a key
        return Exception.__str__(self)


class DimensionError(DefoscError, ValueError):
    """Truncation dimension is too small for the requested operation."""


class DivergenceError(DefoscError, ArithmeticError):
    """A series failed to converge within the allowed number of terms."""


class TruncationError(DefoscError, ArithmeticError):
    """Requested truncation leaves too much tail mass.

    Carries a suggested dimension when one can be estimated.
    """

    def __init__(self, message: str, suggested_dim: int | None = None):
        super().__init__(message)
        self.suggested_dim = suggested_dim


class ZeroCoefficientError(DefoscError, ValueError):
    """A recurrence coefficient b_k is zero where a nonzero value is required."""


class InternalConsistencyError(DefoscError, ArithmeticError):
    """Two supposedly equivalent computation routes disagree."""


class SingularMatrixError(DefoscError, ValueError):
    """Exact inversion hit a singular matrix."""


class CalibrationError(DefoscError, ArithmeticError):
    """No real affine calibration exists for the requested moment functional."""


class InsufficientMomentsError(DefoscError, ValueError):
    """A moment functional was applied beyond its stored moments."""
