"""Degree 2 and 3 mod-2 Galois cohomology of Q, in ramification coordinates.

A 2-torsion Brauer class over Q is pinned down by its (finite, even) set of
ramified places, and addition is symmetric difference.  H^3(Q, mu_2) = Z/2
with the real place as the only obstruction, so a degree 3 class is a bit and
the cup product (a) . [Q] has an explicit closed form.
"""

from itertools import chain
from math import prod
from typing import Collection, Iterable

from ._record import Record, set_field
from .errors import BoundExceeded, DomainError, require
from .qarith import (
    FACTOR_BOUND,
    REAL,
    Place,
    Rational,
    _class_mul,
    _hilbert_core,
    _legendre,
    _local_square_core,
    as_fraction,
    check_place,
    factor,
    is_prime,
    ramified_places,
)

__all__ = ["BrauerClass", "H3Class", "ZERO", "brauer_from_symbol", "cup_h3",
           "nonsquare_slot", "second_slot"]


class BrauerClass(Record):
    """A class in the 2-torsion of Br(Q), as its set of ramified places.

    The places are not re-checked: every class the package builds comes
    from places that factor has proven prime, or from a symmetric
    difference of such sets.  Reciprocity (an even count) is checked, and
    second_slot refuses a class from outside that names a non-place.
    """

    ramified: frozenset[Place]

    def __init__(self, ramified: frozenset[Place]):
        if len(ramified) % 2:
            raise DomainError(f"odd ramification set {set(ramified)}")
        set_field(self, "ramified", ramified)

    def __add__(self, other: "BrauerClass") -> "BrauerClass":
        return BrauerClass(self.ramified ^ other.ramified)

    def is_zero(self) -> bool:
        return not self.ramified

    def is_ramified_at(self, v: Place) -> bool:
        return check_place(v) in self.ramified

    def sort_key(self):
        return sorted(self.ramified, key=lambda v: (-1, 0) if v == REAL else (0, v))


ZERO = BrauerClass(frozenset())


def brauer_from_symbol(a: Rational, b: Rational) -> BrauerClass:
    """The class of the quaternion symbol (a, b)."""
    return BrauerClass(ramified_places(a, b))


def nonsquare_slot(places: Iterable[Place]) -> int:
    """The product of the listed primes, negated when the real place is
    listed: a local nonsquare at every listed place, found by no search."""
    return prod(-1 if v == REAL else v for v in places)


def second_slot(a: int, cls: BrauerClass, places: Collection[Place]) -> tuple:
    """A signed squarefree b with (a, b) = cls, solved over F2, and the
    primes outside the rows it took, for a signed squarefree a whose
    primes are among the places given.

    b -> (a, b) is F2-linear.  The rows are 2, the places dividing a, the
    places of cls and the real place; the generators are -1, the row
    primes, then the primes up to FACTOR_BOUND outside the rows where a is
    a square (proved by is_prime), so each ramifies nothing new.  b comes
    from the first prefix whose span holds cls; one does exactly when a is
    a local nonsquare at every place of cls (Dirichlet), so a local square
    there is refused up front.  Nothing is factored to check b: a and b
    must be the products of the rows and outside primes dividing them,
    and (a, b) must be cls at those.
    """
    dividing = {p for p in places if p != REAL and a % p == 0}
    primes = {2, *dividing} | (cls.ramified - {REAL})
    for v in cls.sort_key():
        # a class built from outside may name a non-place; factor proves
        # the primes, and caches those of the package's own classes
        if v != REAL and not (isinstance(v, int) and v > 1
                              and factor(v) == ((v, 1),)):
            raise DomainError(f"not a place of Q: {v!r}")
        if _local_square_core(a, v):
            raise DomainError(f"{a} is a local square at {v}, where the "
                              "class ramifies")
    rows = sorted(primes) + [REAL]
    target = sum(1 << i for i, v in enumerate(rows) if v in cls.ramified)
    # echelon rows by leading bit, each carrying the product that spans it
    pivots: dict[int, tuple[int, int]] = {}

    def reduce(word: int, b: int) -> tuple[int, int]:
        while word:
            high = word.bit_length() - 1
            if high not in pivots:
                break
            row, slot = pivots[high]
            word, b = word ^ row, _class_mul(b, slot)
        return word, b

    outside = (g for g in range(3, FACTOR_BOUND + 1) if g not in primes
               and is_prime(g) and _legendre(a, g) == 1)
    rest, b, used = target, 1, []
    for g in chain((-1,), rows[:-1], outside):
        if not rest:
            break
        word, slot = reduce(sum(1 << i for i, v in enumerate(rows)
                                if _hilbert_core(a, g, v) == -1), g)
        if word:
            pivots[word.bit_length() - 1] = (word, slot)
            used.append(g)
            rest, b = reduce(target, 1)
    if rest:
        listed = ", ".join(str(v) for v in cls.sort_key())
        raise BoundExceeded(f"no symbol over the primes up to "
                            f"{FACTOR_BOUND} for ramification {{{listed}}}")
    taken = tuple(g for g in used if g > 1 and g not in primes and b % g == 0)
    at = [*rows, *taken]
    require(prod(dividing) == abs(a) and prod(
        p for p in at if p != REAL and b % p == 0) == abs(b)
        and {v for v in at if _hilbert_core(a, b, v) == -1} == cls.ramified,
        a, cls, b)
    return b, taken


class H3Class(Record):
    """An element of H^3(Q, mu_2) = Z/2."""

    bit: int

    def __init__(self, bit: int):
        if bit not in (0, 1):
            raise DomainError("H3 classes are bits")
        set_field(self, "bit", bit)

    def __add__(self, other: "H3Class") -> "H3Class":
        return H3Class(self.bit ^ other.bit)

    def is_zero(self) -> bool:
        return self.bit == 0


def cup_h3(a: Rational, q: BrauerClass) -> H3Class:
    """The cup product (a) . q in H^3(Q, mu_2).

    At every finite place H^3 of the completion vanishes, so the class is the
    real component: nonzero iff a < 0 and q ramifies at the real place.  Only
    the sign of a is read, so nothing is factored.
    """
    if not as_fraction(a):
        raise DomainError("0 has no square class")
    return H3Class(1 if (a < 0 and q.is_ramified_at(REAL)) else 0)
