"""Exception types shared across the package."""


class WandsetError(Exception):
    """Base class for all package errors."""


class NotAPair(WandsetError):
    """Argument is not a Kuratowski pair."""


class NotACarrier(WandsetError):
    """Argument is not of the form {<empty, x>}."""


class NotInCodeImage(WandsetError):
    """Argument is not the canonical code of any pure set."""


class SpecError(WandsetError, ValueError):
    """A registered spec family was given a malformed parameter."""


class CapExceeded(WandsetError):
    """An exhaustive build would exceed its object budget, or a powerset
    expansion the width bound ``pureset.MAX_WIDTH``."""


class BeyondFragment(WandsetError):
    """The answer exists conceptually but lies outside the built fragment."""


class NotBland(WandsetError):
    """Operation requires a bland argument."""


class NotAConch(WandsetError):
    """Argument does not occur in any generated stage."""


class TaxonomyViolation(WandsetError):
    """An object fits none of the Church-universe kinds; should never fire."""


class StabilityViolation(WandsetError):
    """A domain/equivalence answer changed between fragment depths."""

    def __init__(self, witness: str):
        super().__init__(witness)
        self.witness = witness


class TapUndefinedAt(WandsetError):
    """A fold of wand taps hit an undefined step."""

    def __init__(self, index: int):
        super().__init__(f"tap undefined at path index {index}")
        self.index = index


class ParseError(WandsetError):
    """Formula text does not conform to the grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class SignatureError(WandsetError):
    """Formula and model (or translation) signatures do not match."""
