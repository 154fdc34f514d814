"""Diagonal skew-hermitian forms over a quaternion algebra.

A rank n skew-hermitian form <q1, ..., qn> (entries pure and invertible,
conjugation as the involution) is the coordinate description of an
orthogonal involution on a degree 2n algebra.  When the algebra splits it
is transported to an honest 2n-dimensional quadratic form, the independent
route used to cross-check the closed-form discriminant.
"""

from math import lcm

from . import _linalg
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
    """Integral multiples (c e, c nu e) of a basis of the left ideal He, for
    the rank 1 idempotent e = (1 + mu) / 2.  Scaling a basis by one scalar
    leaves every coefficient S(x, q y) unchanged, since conj(x) q y and w
    both scale by c^2."""
    mu = pure_with_square(alg, 1)
    nu = anticommutant(alg, mu)
    f = alg.one() + mu
    f = f * f.den
    g = nu * f
    return f * g.den, g * g.den


def to_quadratic_form(form: SkewHermForm) -> QuadForm:
    """The 2n-dimensional quadratic form adjoint to the same involution,
    available when the algebra splits.  Well defined up to a scalar, which
    no even-dimensional discriminant ever sees.

    For the basis (f, g) of He, w = conj(f) g is a multiple of nu (1 + mu),
    and for x, y in He, conj(x) y lies on the line of w with coefficient
    S(x, y), the symplectic form with S(f, g) = 1 to which conjugation
    transports.  So conj(x) q y = S(x, q y) w, and for a pure entry q the
    block of those coefficients on (f, g) is symmetric.  The blocks
    assemble into a Gram matrix over Q, diagonalized over one common
    denominator.
    """
    if not form.alg.is_split():
        raise DomainError("transport needs a split algebra")
    f, g = basis = _split_module_basis(form.alg)
    w = f.conjugate() * g
    k = next(i for i, c in enumerate(w.num) if c)
    blocks = []
    for q in form.entries:
        right = [q * y for y in basis]
        block = [[x.conjugate() * qy for qy in right] for x in basis]
        require(block[0][1] == block[1][0]
                and all(p.num[i] * w.num[k] == p.num[k] * w.num[i]
                        for row in block for p in row for i in range(4)), q)
        blocks.append(block)
    # the coefficient of p on w is p.num[k] w.den / (p.den w.num[k]): over
    # den |w.num[k]| its numerator is the Gram entry
    den = lcm(*(p.den for block in blocks for row in block for p in row))
    scale = w.den if w.num[k] > 0 else -w.den
    n = form.rank
    gram = [[0] * (2 * n) for _ in range(2 * n)]
    for t, block in enumerate(blocks):
        for r in range(2):
            for c in range(2):
                p = block[r][c]
                gram[2 * t + r][2 * t + c] = p.num[k] * (den // p.den) * scale
    diag = _linalg.congruence_diagonalize(gram)
    require(all(x != 0 for x in diag), form)
    return QuadForm(tuple(x / (den * abs(w.num[k])) for x in diag))


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
