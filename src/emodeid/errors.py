"""Exception hierarchy shared across the toolkit."""


class EmodeidError(Exception):
    """Base class for all toolkit errors."""


class EmptyInputError(EmodeidError):
    """An operation received an empty signal or collection."""


class InvalidParamError(EmodeidError):
    """A parameter violates its documented contract."""


class UnstableFilterError(EmodeidError):
    """Synthesis filter has poles on or outside the unit circle."""


class ParseError(EmodeidError):
    """A structured document could not be parsed.

    ``context`` carries line/record information when available.
    """

    def __init__(self, message, context=None):
        super().__init__(message if context is None else f"{message} ({context})")
        self.context = context


class InsufficientDataError(EmodeidError):
    """Not enough records to satisfy a split request."""


class LengthMismatchError(EmodeidError):
    """Paired sequences have different lengths."""


class ClientUnavailableError(EmodeidError):
    """A remote service, or a mock client's fixture table, gave no usable reply."""


class JudgeParseError(EmodeidError):
    """Judge reply did not match the answer grammar, even after a retry."""
