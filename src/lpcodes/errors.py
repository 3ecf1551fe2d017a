"""Exception types shared across the package."""


class LpCodesError(Exception):
    """Base class for all package-specific errors."""


class SingularMatrixError(LpCodesError):
    """A basis matrix has determinant zero where full rank is required."""


class Int64RangeError(LpCodesError, OverflowError):
    """An int64 kernel met entries large enough that its next step could
    overflow; the exact Python-int routine must be used instead."""


class DimensionUnsupportedError(LpCodesError):
    """The requested computation is only implemented for specific n."""


class HypothesisViolatedError(LpCodesError):
    """A family constructor was called with parameters outside its
    admissible region.  The message names the failing inequality."""


class CheckpointError(LpCodesError, ValueError):
    """A search checkpoint cannot be used: it cannot be opened, holds a
    malformed line, or was written for another query."""


class VerificationError(LpCodesError):
    """A search result failed its re-proof: the full analysis disagreed
    with the verdict that selected it.  This signals a program fault,
    never bad input."""
