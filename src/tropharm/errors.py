"""Exception hierarchy with stable machine-readable codes.

Every error raised by the library carries a ``code`` attribute; the CLI
serializes it as ``{"code": ..., "message": ...}`` on stderr.
"""
from __future__ import annotations


class TropharmError(Exception):
    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message


class InputError(TropharmError):
    code = "BadInput"


class NotCubicError(TropharmError):
    code = "NotCubic"


class DisconnectedError(TropharmError):
    code = "Disconnected"


class NonPositiveLengthError(TropharmError):
    code = "NonPositiveLength"


class BadRibbonError(TropharmError):
    code = "BadRibbon"


class SelfLoopEdgeError(TropharmError):
    code = "SelfLoopEdge"


class UnknownLeafError(TropharmError):
    code = "UnknownLeaf"


class NotPathOrLoopError(TropharmError):
    code = "NotPathOrLoop"


class NotALoopError(TropharmError):
    code = "NotALoop"


class BalancingViolationError(TropharmError):
    code = "BalancingViolation"


class InfiniteIntegralError(TropharmError):
    code = "InfiniteIntegral"


class ResiduesDontSumToZeroError(TropharmError):
    code = "ResiduesDontSumToZero"


class SingularSystemError(TropharmError):
    code = "SingularSystem"


class TooFewLeavesError(TropharmError):
    code = "TooFewLeaves"


class NotTropicalError(TropharmError):
    code = "NotTropical"


class BadBasisError(TropharmError):
    code = "BadBasis"


class UnsupportedDimensionForSvgError(TropharmError):
    code = "UnsupportedDimensionForSvg"


class NotATreeError(TropharmError):
    code = "NotATree"


class EvaluationAtPunctureError(TropharmError):
    code = "EvaluationAtPuncture"


class MinimumDensityViolationError(TropharmError):
    code = "MinimumDensityViolation"


class SamplingTooDenseError(TropharmError):
    code = "SamplingTooDense"


class EmptyAfterClippingError(TropharmError):
    code = "EmptyAfterClipping"


class ZeroCoordinateError(TropharmError):
    code = "ZeroCoordinate"


class NonPositiveResiduesError(TropharmError):
    code = "NonPositiveResidues"
