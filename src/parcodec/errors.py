"""Exception types shared across the package."""


class CodecError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(CodecError):
    """A word has the wrong length or a symbol outside the alphabet."""


class ParameterViolation(CodecError):
    """Constraint parameters are outside the regime a builder supports."""


class SlackMismatch(CodecError):
    """A shrink step's slack does not fit the composition it is used in."""


class IterationCapExceeded(CodecError):
    """The encoder loop exceeded its iteration cap.

    For the built-in constructions the loop provably terminates, so this
    only fires for a user-supplied non-injective step function.
    """


class NotACodeword(CodecError):
    """Decoding failed: the word is not in the image of any encoder path.

    ``reason`` names the kind of refusal in one fixed string: ``iter-cap``,
    ``reverse-cycle``, ``bad-marker``, ``bad-padding``,
    ``field-out-of-range`` or ``bad-packing`` from the built-in codecs, or
    None when a custom step gives none.
    """

    def __init__(self, *args, reason: str | None = None):
        super().__init__(*args)
        self.reason = reason


class RankOutOfRange(CodecError):
    """An enumerative rank exceeds the size of the set being indexed."""


class BoundExceeded(CodecError):
    """An exhaustive operation was requested above the configured state bound."""


class ParseError(CodecError):
    """Malformed constraint-spec text."""
