"""Exception types shared across the package."""


class LatmatError(Exception):
    """Base class for every error raised by this package."""


class UnknownElementError(LatmatError, ValueError):
    """A subset argument referenced an element outside the ground set."""

    def __init__(self, element):
        super().__init__(f"element {element!r} is not in the ground set")
        self.element = element


class UnknownAttributeError(LatmatError, ValueError):
    """An attribute-subset argument referenced an unknown attribute."""

    def __init__(self, attribute):
        super().__init__(f"attribute {attribute!r} is not in the table")
        self.attribute = attribute


class NotAFlatError(LatmatError, ValueError):
    """The argument is not a closed set of the matroid or lattice at hand."""


class NotACoveringError(LatmatError, ValueError):
    """The family's blocks do not cover the ground set."""


class EmptyTargetError(LatmatError, ValueError):
    """A hitting-set target was empty; the empty set cannot be hit."""


class ConditionNotSatisfiedError(LatmatError, ValueError):
    """The quotient-rule precondition failed; use the discernibility route."""


class CapacityError(LatmatError, RuntimeError):
    """An exhaustive scan was refused because the input exceeds its guard."""


class DocumentError(LatmatError, ValueError):
    """An input file could not be parsed into a valid document."""
