"""Exception types shared across the package."""


class IntrankError(Exception):
    """Base class for all package-specific errors."""


class CycleError(IntrankError):
    """The relation closure forces two distinct elements below each other;
    `pair` holds the indices of the two that the message names."""

    def __init__(self, message: str, pair: tuple[int, int] | None = None):
        super().__init__(message)
        self.pair = pair


class NotComparable(IntrankError):
    """An order interval [a, b] was requested with a not below b."""


class UnboundedError(IntrankError):
    """An operation requiring a bottom and/or top element got a poset without one."""


class TooSmall(IntrankError):
    """Rank operators need at least two elements."""


class GroundMismatch(IntrankError):
    """Two order tables over different ground sets were compared."""


class BudgetExceeded(IntrankError):
    """A search or enumeration exceeded its declared size budget."""


class CapExceeded(IntrankError):
    """Rank iteration did not reach a chain within the safety cap."""


class RangeError(IntrankError):
    """An interval mapping produced an invalid (empty) interval."""


class EmptyInput(IntrankError):
    """An aggregate was requested over no records."""


class DegenerateInput(IntrankError):
    """A fit was requested on data with no x-variation."""


class DomainError(IntrankError):
    """A fit was requested outside the model's domain (e.g. log of x <= 0)."""


class InvalidDocument(IntrankError):
    """A poset document failed to parse."""
