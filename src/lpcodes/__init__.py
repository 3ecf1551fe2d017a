"""Exact analysis and exhaustive enumeration of perfect and quasi-perfect
lattice codes in Z^n under lp metrics."""

from .errors import (
    DimensionUnsupportedError,
    HypothesisViolatedError,
    LpCodesError,
    SingularMatrixError,
    VerificationError,
)

__all__ = [
    "DimensionUnsupportedError",
    "HypothesisViolatedError",
    "LpCodesError",
    "SingularMatrixError",
    "VerificationError",
]

__version__ = "0.1.0"
