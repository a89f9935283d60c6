"""Starlike-at-infinity domains and completeness of exponential frequencies."""

from .domain import (
    CantorCarrierPiece,
    FiniteAnalytic,
    LimitData,
    MinusInfinity,
    OneSidedLimits,
    PiecewiseDefiningFunction,
    TailEnvelope,
    ValidationError,
)
from .cantor import CantorSet
from .expr import Evaluator, parse_expression
from .tri import TriState

__all__ = [
    "CantorCarrierPiece",
    "CantorSet",
    "Evaluator",
    "FiniteAnalytic",
    "LimitData",
    "MinusInfinity",
    "OneSidedLimits",
    "PiecewiseDefiningFunction",
    "TailEnvelope",
    "TriState",
    "ValidationError",
    "parse_expression",
]

__version__ = "0.1.0"
