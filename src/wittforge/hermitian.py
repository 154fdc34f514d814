"""Diagonal skew-hermitian forms over a quaternion algebra.

A rank n skew-hermitian form <q1, ..., qn> (entries pure and invertible,
conjugation as the involution) is the coordinate description of an
orthogonal involution on a degree 2n algebra.  When the algebra splits it
is transported to an honest 2n-dimensional quadratic form, the independent
route used to cross-check the closed-form discriminant.  The transport is
block diagonal, one symmetric 2x2 block per entry, and each block is
diagonalized by formula.
"""

from fractions import Fraction

from ._record import Record, set_field
from .errors import DomainError, require
from .qarith import square_class_product
from .quadform import QuadForm
from .quat import Quat, QuaternionAlgebra, algebra_from_json, algebra_to_json, \
    anticommutant, elem_from_json, elem_to_json, pure_with_square

__all__ = ["SkewHermForm", "disc_adjoint", "from_json", "skew_form",
           "to_json", "to_quadratic_form"]


class SkewHermForm(Record):
    """<q1, ..., qn> with pure invertible entries."""

    alg: QuaternionAlgebra
    entries: tuple[Quat, ...]

    def __init__(self, alg: QuaternionAlgebra, entries: tuple[Quat, ...]):
        if not entries:
            raise DomainError("rank must be positive")
        for q in entries:
            if q.alg != alg:
                raise DomainError("entry from a different algebra")
            if not q.is_pure() or not q.is_invertible():
                raise DomainError("entries must be pure and invertible")
        set_field(self, "alg", alg)
        set_field(self, "entries", entries)

    @property
    def rank(self) -> int:
        return len(self.entries)


def skew_form(alg: QuaternionAlgebra, *entries: Quat) -> SkewHermForm:
    return SkewHermForm(alg, tuple(entries))


def disc_adjoint(form: SkewHermForm) -> int:
    """Discriminant of the adjoint orthogonal involution: (-1)^n prod nrd(qi),
    as a signed squarefree int, taken class by class."""
    return square_class_product((-1) ** form.rank,
                                *(q.nrd for q in form.entries))


# --- transport to a quadratic form when the algebra splits -----------------

def _split_module_basis(alg: QuaternionAlgebra) -> tuple[Quat, Quat]:
    """The basis (f, nu f) of the left ideal He, for the rank 1 idempotent
    e = (1 + mu) / 2 and f = 1 + mu."""
    mu = pure_with_square(alg, 1)
    f = alg.one() + mu
    return f, anticommutant(alg, mu) * f


def to_quadratic_form(form: SkewHermForm) -> QuadForm:
    """The 2n-dimensional quadratic form adjoint to the same involution,
    available when the algebra splits.  Well defined up to a scalar, which
    no even-dimensional discriminant ever sees.

    For the basis (f, g) of He, w = conj(f) g is a multiple of nu (1 + mu),
    and for x, y in He, conj(x) y lies on the line of w with coefficient
    S(x, y), the symplectic form with S(f, g) = 1 to which conjugation
    transports.  So conj(x) q y = S(x, q y) w, and for a pure entry q the
    block [[a, b], [b, c]] of those coefficients on (f, g) is symmetric.
    Each block is diagonalized in closed form: <a, det / a> when a != 0,
    else <c, det / c> when c != 0, else <2b, -b / 2> on (f + g, (g - f) / 2),
    with det = ac - b^2 read off the block itself, never off nrd(q).
    """
    if not form.alg.is_split():
        raise DomainError("transport needs a split algebra")
    f, g = basis = _split_module_basis(form.alg)
    w = f.conjugate() * g
    k = next(i for i, c in enumerate(w.num) if c)
    entries = []
    for q in form.entries:
        right = [q * y for y in basis]
        block = [x.conjugate() * qy for x in basis for qy in right]
        require(block[1] == block[2]
                and all(p.num[i] * w.num[k] == p.num[k] * w.num[i]
                        for p in block for i in range(4)), q)
        # the coefficient of p on w
        a, b, _, c = (Fraction(p.num[k] * w.den, p.den * w.num[k])
                      for p in block)
        det = a * c - b * b
        require(det != 0, q)
        if a:
            entries += [a, det / a]
        elif c:
            entries += [c, det / c]
        else:
            entries += [2 * b, -b / 2]
    return QuadForm(tuple(entries))


# --- serialization ---------------------------------------------------------

def to_json(form: SkewHermForm) -> dict:
    return {
        "alg": algebra_to_json(form.alg),
        "entries": [elem_to_json(q) for q in form.entries],
    }


def from_json(data: dict) -> SkewHermForm:
    if not isinstance(data, dict) or "alg" not in data or "entries" not in data:
        raise DomainError("skew-hermitian JSON needs 'alg' and 'entries'")
    alg = algebra_from_json(data["alg"])
    if not isinstance(data["entries"], list) or not data["entries"]:
        raise DomainError("entries must be a nonempty list")
    entries = tuple(elem_from_json(q, expected=alg) for q in data["entries"])
    return SkewHermForm(alg, entries)
