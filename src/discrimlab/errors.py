"""Shared exception types."""


class DiscrimError(Exception):
    """Base class for all package errors."""


class BudgetExceeded(DiscrimError):
    """An enumeration grew past its configured cap."""


class WordFormatError(DiscrimError, ValueError):
    """A serialized word failed to parse.

    Carries the character position of the offending token.
    """

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class GroupSpecError(DiscrimError, ValueError):
    """An extension-of-centralizer spec failed validation."""

    def __init__(self, message, stage=None):
        if stage is not None:
            message = f"stage {stage}: {message}"
        super().__init__(message)
        self.stage = stage


class CertificationError(DiscrimError):
    """A certified threshold was contradicted by its witness, a trivializing tuple r above it."""

    def __init__(self, threshold, witness):
        super().__init__(
            f"trivializing tuple {witness} above threshold {threshold}: threshold is unsound"
        )
        self.threshold = threshold
        self.witness = witness


class AscentExhausted(DiscrimError):
    """An ascent ran past the ceiling its analysis says it stops below.

    Carries the witness found at the ceiling: for a p ascent, the ball
    radius R and a colliding pair (w, w') of distinct ball elements with
    equal images; for the block-magnitude ascent of a big-powers
    threshold, R is None and the witness is the corner exponent
    assignment that still fails.
    """

    def __init__(self, message, ceiling, R, witness):
        super().__init__(f"{message} (ceiling {ceiling}, R={R}, witness {witness!r})")
        self.ceiling = ceiling
        self.R = R
        self.witness = witness
