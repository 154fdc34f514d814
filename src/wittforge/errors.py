"""Exception types shared across the package.

Every operation distinguishes "the input is outside the domain of this map"
(DomainError) from "the answer exists but the search needed to produce a
witness ran past its fixed budget" (BoundExceeded).  Callers that want
to treat exhaustion as a soft failure can catch the latter alone.
"""

__all__ = ["BoundExceeded", "DomainError", "require"]


class DomainError(ValueError):
    """Input violates a precondition of the requested operation."""


class BoundExceeded(RuntimeError):
    """A search ran past its height, factor-base or factorization budget."""


def require(fact: bool, *detail) -> None:
    """Raise AssertionError(*detail) unless fact holds.

    A verification that must survive python -O, which strips assert
    statements: witnesses and certificates are checked through this.
    """
    if not fact:
        raise AssertionError(*detail)
