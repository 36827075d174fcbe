"""Exception types shared across the package."""


class GuidanceError(Exception):
    """Base class for every error this package raises on purpose."""


class ShapeMismatchError(GuidanceError):
    pass


class NonFiniteError(GuidanceError):
    pass


class NotScalarError(GuidanceError):
    pass


class DoubleBackwardError(GuidanceError):
    pass


class EmptyDomainError(GuidanceError):
    pass


class ClassMismatchError(GuidanceError):
    pass


class InfeasibleError(GuidanceError):
    """The calibration constraint cannot be met for any temperature."""


class NotBracketedError(GuidanceError):
    """Bracket expansion failed to enclose the calibration root."""


class IdMismatchError(GuidanceError):
    pass


class FractionOutOfRangeError(GuidanceError):
    pass


class UnknownSampleIdError(GuidanceError):
    pass


class UnknownDomainTagError(GuidanceError):
    pass


class NonPositiveVarianceError(GuidanceError):
    pass


class EmptyMaskError(GuidanceError):
    pass


class SingleDomainBatchError(GuidanceError):
    pass


class ParseError(GuidanceError):
    """A file could not be parsed; carries the path and 1-based line number."""

    def __init__(self, message, path=None, line_number=None):
        detail = message
        if path is not None:
            detail = f"{path}: {detail}"
        if line_number is not None:
            detail = f"{detail} (line {line_number})"
        super().__init__(detail)
        self.path = path
        self.line_number = line_number


class WidthMismatchError(ParseError):
    """A data row carries the wrong number of fields for its header."""


class InvalidSpecError(GuidanceError):
    pass


class ConfigInvalidError(GuidanceError):
    pass


class UnlabeledError(GuidanceError):
    pass


class TapeReleasedError(GuidanceError):
    """An op was recorded on a node whose tape no longer exists."""
