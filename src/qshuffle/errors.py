"""Exception types shared across the package."""


class QShuffleError(Exception):
    """Base class for all package-specific errors."""


class CapExceededError(QShuffleError):
    """A requested computation would produce words longer than the length cap."""


class InexactDivisionError(QShuffleError):
    """An exact division left a nonzero remainder.

    On valid inputs the divisions performed by this package (by q - q^-1,
    by t, by q^n - q^-n) are always exact; seeing this error signals a bug
    or an invalid input, never a rounding issue. dividend is the nonzero
    Element that did not divide, when known; a check reports it as witness.
    """

    def __init__(self, message: str, dividend=None):
        super().__init__(message)
        self.dividend = dividend


class NonCatalanWordError(QShuffleError):
    """A Catalan word was required."""


class TrivialWordError(QShuffleError):
    """The empty word is outside the domain of this operation."""


class DegenerateProfileError(QShuffleError):
    """A profile with at least one peak (r >= 1) was required."""


class CutoffMismatchError(QShuffleError):
    """Binary series operations require operands truncated at the same degree."""
