"""Exception types shared across the package."""


class ConvNegError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(ConvNegError):
    pass


class NonSymmetricError(ConvNegError):
    pass


class NotPSDError(ConvNegError):
    pass


class NotNormalizedError(ConvNegError):
    pass


class ZeroMatrixError(ConvNegError):
    pass


class WeightOutOfRangeError(ConvNegError, ValueError):
    pass


class UnknownWordError(ConvNegError, KeyError):
    def __str__(self) -> str:  # plain message, not KeyError's repr
        return self.args[0] if self.args else ""


class MissingMatrixError(ConvNegError):
    pass


class IsolatedWordError(ConvNegError):
    pass


class UnscoredWordError(ConvNegError):
    """An entailment graph asked for a word it was not built around; never a skipped pair."""


class CorruptLexiconError(ConvNegError):
    pass


class InsufficientDataError(ConvNegError):
    pass


class ZeroVarianceError(ConvNegError):
    pass


class ParseError(ConvNegError):
    """Malformed input file; carries the 1-based line number when known."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class DuplicateWordError(ParseError):
    pass


class SelfReferenceError(ParseError):
    pass


class RatingOutOfRangeError(ParseError):
    pass


class DuplicatePairError(ParseError):
    pass


class EmptyKernelWarning(UserWarning):
    """Kernel-projector negation applied to an invertible matrix."""
