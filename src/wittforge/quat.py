"""Quaternion algebras (a, b) over Q with exact element arithmetic.

Basis 1, i, j, k with i^2 = a, j^2 = b, k = ij = -ji.  An element is four
ints over one positive denominator, reduced by their gcd, so equal elements
have equal fields.  Products, norms, inverses and sums are integer
arithmetic against s, a s, b s and ab s, where s is the product of the
denominators of a and b, read once per algebra; a and b themselves stay
as given.  `coeffs` is the rational view for serialization.  Elements
carry their algebra so cross-algebra arithmetic fails loudly.  The reduced
norm on pure quaternions is the diagonal form <-a, -b, ab>, and two pures
anticommute exactly when they are orthogonal for it; that is what the
constructive helpers below exploit, reading the orthogonal pures off the
integer numerators in closed form.
"""

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from ._record import Record, set_field
from .cohomology import BrauerClass, brauer_from_symbol
from .errors import DomainError, require
from .qarith import Rational, as_fraction, rational_from_json
from .quadform import QuadForm, diagonal, direct_sum, isotropic_vector, \
    neg, represent_value

__all__ = ["Quat", "QuaternionAlgebra", "algebra", "algebra_from_json",
           "algebra_to_json", "anticommutant", "common_value_witness",
           "elem_from_json", "elem_to_json", "pure", "pure_with_square",
           "three_pure_product"]


def _ratio(x: Rational) -> tuple[int, int]:
    # numerator and positive denominator of an exact rational, with no
    # Fraction built for an int
    if isinstance(x, int) and not isinstance(x, bool):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise DomainError(f"expected an exact rational, got {type(x).__name__}")


class QuaternionAlgebra(Record):
    a: Fraction
    b: Fraction

    def __init__(self, a: Rational, b: Rational):
        af, bf = as_fraction(a), as_fraction(b)
        if af == 0 or bf == 0:
            raise DomainError("quaternion parameters must be nonzero")
        set_field(self, "a", af)
        set_field(self, "b", bf)
        # (s, a s, b s, ab s) for s the product of the denominators: the
        # integer weights of the element arithmetic, not a field
        s = af.denominator * bf.denominator
        set_field(self, "_weights", (s, af.numerator * bf.denominator,
                                     bf.numerator * af.denominator,
                                     af.numerator * bf.numerator))

    @cached_property
    def brauer(self) -> BrauerClass:
        return brauer_from_symbol(self.a, self.b)

    def is_split(self) -> bool:
        return self.brauer.is_zero()

    @cached_property
    def norm_form(self) -> QuadForm:
        return diagonal(1, -self.a, -self.b, self.a * self.b)

    @cached_property
    def pure_norm_form(self) -> QuadForm:
        return diagonal(-self.a, -self.b, self.a * self.b)

    def element(self, t: Rational, x: Rational, y: Rational, z: Rational) -> "Quat":
        ratios = [_ratio(c) for c in (t, x, y, z)]
        den = lcm(*(d for _, d in ratios))
        return _quat(self, *(n * (den // d) for n, d in ratios), den)

    def one(self) -> "Quat":
        return _quat(self, 1, 0, 0, 0, 1)

    def i(self) -> "Quat":
        return _quat(self, 0, 1, 0, 0, 1)

    def j(self) -> "Quat":
        return _quat(self, 0, 0, 1, 0, 1)

    def k(self) -> "Quat":
        return _quat(self, 0, 0, 0, 1, 1)


def algebra(a: Rational, b: Rational) -> QuaternionAlgebra:
    return QuaternionAlgebra(a, b)


class Quat(Record):
    """t + x i + y j + z k with (t, x, y, z) = num / den, den > 0 and
    gcd(num, den) = 1."""

    alg: QuaternionAlgebra
    num: tuple[int, int, int, int]
    den: int

    def __init__(self, alg: QuaternionAlgebra, num: tuple[int, int, int, int],
                 den: int):
        if (len(num) != 4 or den == 0
                or not all(type(n) is int for n in (*num, den))):
            raise DomainError("a quaternion is four ints over a nonzero int")
        g = gcd(*num, den) if den > 0 else -gcd(*num, den)
        set_field(self, "alg", alg)
        set_field(self, "num", tuple(n // g for n in num))
        set_field(self, "den", den // g)

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The four rational coordinates."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    def _check(self, other: "Quat") -> None:
        if self.alg != other.alg:
            raise DomainError("elements live in different algebras")

    def __add__(self, other: "Quat") -> "Quat":
        self._check(other)
        d1, d2 = self.den, other.den
        return _quat(self.alg, *(p * d2 + q * d1
                                 for p, q in zip(self.num, other.num)), d1 * d2)

    def __sub__(self, other: "Quat") -> "Quat":
        return self + -other

    def __neg__(self) -> "Quat":
        t, x, y, z = self.num
        return _quat(self.alg, -t, -x, -y, -z, self.den)

    def __mul__(self, other) -> "Quat":
        if not isinstance(other, Quat):
            cn, cd = _ratio(other)
            t, x, y, z = self.num
            return _quat(self.alg, cn * t, cn * x, cn * y, cn * z, cd * self.den)
        self._check(other)
        s, sa, sb, sab = self.alg._weights
        t1, x1, y1, z1 = self.num
        t2, x2, y2, z2 = other.num
        # the Hamilton products of the coordinates, times s
        return _quat(
            self.alg,
            s * t1 * t2 + sa * x1 * x2 + sb * y1 * y2 - sab * z1 * z2,
            s * (t1 * x2 + x1 * t2) + sb * (z1 * y2 - y1 * z2),
            s * (t1 * y2 + y1 * t2) + sa * (x1 * z2 - z1 * x2),
            s * (t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2),
            s * self.den * other.den)

    __rmul__ = __mul__

    def conjugate(self) -> "Quat":
        t, x, y, z = self.num
        return _quat(self.alg, t, -x, -y, -z, self.den)

    @cached_property
    def nrd(self) -> Rational:
        """t^2 - a x^2 - b y^2 + ab z^2, an int when it is integral."""
        s, sa, sb, sab = self.alg._weights
        t, x, y, z = self.num
        n = s * t * t - sa * x * x - sb * y * y + sab * z * z
        d = s * self.den * self.den
        whole, rest = divmod(n, d)
        return Fraction(n, d) if rest else whole

    def is_pure(self) -> bool:
        return self.num[0] == 0

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_invertible(self) -> bool:
        return self.nrd != 0

    def inverse(self) -> "Quat":
        n = self.nrd
        if n == 0:
            raise DomainError("element has reduced norm 0")
        # the conjugate times den(n) / num(n)
        nn, nd = n.numerator, n.denominator
        if nn < 0:
            nn, nd = -nn, -nd
        t, x, y, z = self.num
        return _quat(self.alg, nd * t, -nd * x, -nd * y, -nd * z,
                     nn * self.den)

    def square_scalar(self) -> Rational:
        """The rational value of x^2 for pure x (it is -nrd)."""
        if not self.is_pure():
            raise DomainError("element is not pure")
        return -self.nrd


def _quat(alg: QuaternionAlgebra, t: int, x: int, y: int, z: int,
          den: int) -> Quat:
    # the element (t, x, y, z) / den for den > 0, reduced by the gcd
    g = gcd(t, x, y, z, den)
    if g != 1:
        t, x, y, z, den = t // g, x // g, y // g, z // g, den // g
    q = object.__new__(Quat)
    set_field(q, "alg", alg)
    set_field(q, "num", (t, x, y, z))
    set_field(q, "den", den)
    return q


def pure(alg: QuaternionAlgebra, x: Rational, y: Rational, z: Rational) -> Quat:
    return alg.element(0, x, y, z)


def _orthogonal_pure(alg: QuaternionAlgebra, p: Quat) -> Quat:
    """The first invertible pure among w1, w2, w1 + w2, w1 - w2, where
    w1, w2 start a basis of the pures orthogonal to the pure part of p for
    the pure norm form.  For a scalar p that basis is i, j, k, and
    i^2 = a != 0.  Else it spans a plane, where the nondegenerate ternary
    pure norm form has at most two isotropic lines, so two of the four
    candidates are invertible.
    """
    _, sa, sb, sab = alg._weights
    _, x, y, z = p.num
    # the row r = (-a x, -b y, ab z) times s den(p) > 0: the same kernel.
    # Off its first nonzero column c, made positive, each other column f
    # gives e_f - (r[f] / r[c]) e_c, kept as ints over r[c]
    row = [-sa * x, -sb * y, sab * z]
    c = next((i for i, r in enumerate(row) if r), None)
    if c is None:
        w1, w2, den = (1, 0, 0), (0, 1, 0), 1
    else:
        if row[c] < 0:
            row = [-r for r in row]
        den = row[c]
        w1, w2 = ([den if i == f else -row[f] if i == c else 0
                   for i in range(3)] for f in range(3) if f != c)
    for coords in (w1, w2,
                   [s + t for s, t in zip(w1, w2)],
                   [s - t for s, t in zip(w1, w2)]):
        u = _quat(alg, 0, *coords, den)
        if u.is_invertible():
            return u
    raise AssertionError(f"no invertible pure orthogonal to {p} in {alg}")


def anticommutant(alg: QuaternionAlgebra, p: Quat) -> Quat:
    """An invertible pure u with up = -pu, that is, orthogonal to p."""
    if p.alg != alg:
        raise DomainError("element not in the given algebra")
    if not p.is_pure() or not p.is_invertible():
        raise DomainError("need an invertible pure quaternion")
    u = _orthogonal_pure(alg, p)
    require((u * p + p * u).is_zero(), p, u)
    return u


def pure_with_square(alg: QuaternionAlgebra, d0: Rational) -> Quat:
    """An exact pure quaternion j with j^2 = d0, when one exists."""
    d0f = as_fraction(d0)
    if d0f == 0:
        raise DomainError("a pure square must be nonzero")
    try:
        coords = represent_value(alg.pure_norm_form, -d0f)
    except DomainError:
        raise DomainError(
            f"no pure element of ({alg.a}, {alg.b}) squares to {d0f}") from None
    u = pure(alg, *coords)
    require(u.square_scalar() == d0f, alg, d0f, u)
    return u


def common_value_witness(h1: QuaternionAlgebra, h2: QuaternionAlgebra,
                         ) -> tuple[Quat, Quat]:
    """A pair (q in h1, pure j in h2) with nrd(q) = -j^2 != 0.

    Over Q one always exists.  The difference of the two norm forms,
    <1, -a1, -b1, a1 b1, a2, b2, -a2 b2>, has the entry 1 and a negative
    entry among a2, b2, -a2 b2; indefinite of dimension 7, it is
    isotropic (Hasse-Minkowski).  When neither algebra splits, both norm
    forms are anisotropic, so its zero gives a nonzero common value.
    The search may still raise BoundExceeded.
    """
    n1 = h1.norm_form
    n2_pure = h2.pure_norm_form
    if h2.is_split():
        # pure norms of a split algebra take every value; match nrd(1) = 1
        j = pure(h2, *represent_value(n2_pure, 1))
        q = h1.one()
    elif h1.is_split():
        j = h2.i()
        q = h1.element(*represent_value(n1, j.nrd))
    else:
        v = isotropic_vector(direct_sum(n1, neg(n2_pure)))
        q = h1.element(*v[:4])
        j = pure(h2, *v[4:])
    value = q.nrd
    require(value == j.nrd and value != 0, q, j)
    return q, j


def three_pure_product(alg: QuaternionAlgebra, q: Quat,
                       ) -> tuple[Quat, Quat, Quat]:
    """Pure invertible q1, q2, q3 with q1 q2 q3 = q, where q3 = i.

    i is invertible since i^2 = a != 0.  With m = q i^-1, a pure x makes
    m x pure exactly when it is orthogonal to the pure part of m for the
    pure norm form, and any invertible such x gives the factorization
    q = (m x)(x^-1)(i).
    """
    if q.alg != alg:
        raise DomainError("element not in the given algebra")
    if not q.is_invertible():
        raise DomainError("need an invertible quaternion")
    q3 = alg.i()
    m = q * q3.inverse()
    x = _orthogonal_pure(alg, m)
    q1, q2 = m * x, x.inverse()
    require(q1.is_pure() and q1.is_invertible(), q, q1)
    require(q1 * q2 * q3 == q, q, q1, q2, q3)
    return q1, q2, q3


# --- serialization ----------------------------------------------------------

def algebra_to_json(alg: QuaternionAlgebra) -> dict:
    return {"a": str(alg.a), "b": str(alg.b)}


def algebra_from_json(data) -> QuaternionAlgebra:
    if not isinstance(data, dict) or "a" not in data or "b" not in data:
        raise DomainError("an algebra is {\"a\": ..., \"b\": ...}")
    return QuaternionAlgebra(rational_from_json(data["a"]),
                             rational_from_json(data["b"]))


def elem_to_json(q: Quat) -> dict:
    return {"alg": algebra_to_json(q.alg),
            "coords": [str(c) for c in q.coeffs]}


def elem_from_json(data, expected: QuaternionAlgebra | None = None) -> Quat:
    if not isinstance(data, dict) or "alg" not in data or "coords" not in data:
        raise DomainError("a quaternion is {\"alg\": ..., \"coords\": ...}")
    alg = algebra_from_json(data["alg"])
    if expected is not None and alg != expected:
        raise DomainError("quaternion algebra disagrees with its context")
    coords = data["coords"]
    if not isinstance(coords, list) or len(coords) != 4:
        raise DomainError("coords must be four rationals")
    return alg.element(*(rational_from_json(c) for c in coords))
