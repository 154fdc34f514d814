"""Regular diagonal quadratic forms over Q and their classifying invariants.

Forms are kept diagonal throughout.  Each entry is stored as an int when
it is integral and as a Fraction only when it is not (`as_exact`), so a
form built from ints (tensors, Pfister forms, scalings, Witt kernels)
stays in int arithmetic.  The classifying data over Q is one `Invariants`
record (dim, determinant class, signature, Hasse class, Clifford class),
built in one pass over the form's places and cached on it; e1, e2, e3,
the Witt index, isometry and hyperbolicity are read off it, and Witt
classes are compared by its `witt_class`.  The places (2, the primes of
the entries' classes, the real place) come with the classes,
one factorization per entry; isotropy, represented values and Witt kernels
take them as given, and every number built on the way carries its primes
from where it was made.  Hasse-Minkowski lives in `kernel_dim` alone.
All searches return exact witnesses or raise BoundExceeded.  Isotropic
vectors are found, stitched and checked in ints, from the descent to the
zero of the cleared diagonal, and returned as Fractions.
"""

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import gcd, isqrt, lcm, prod
from typing import Collection, Iterable, Sequence

from ._record import Record, set_field
from .cohomology import BrauerClass, H3Class, nonsquare_slot, second_slot
from .errors import BoundExceeded, DomainError, require
from .qarith import (
    REAL,
    Place,
    Rational,
    _class_mul,
    _hilbert_core,
    _legendre,
    _class_primes,
    _classes_and_places,
    _local_square_core,
    as_exact,
    as_fraction,
    rational_from_json,
    sqrt_mod_squarefree,
    squarefree_part,
)

__all__ = ["QuadForm", "clifford_class", "diagonal", "direct_sum", "e1", "e2",
           "e3", "from_json", "hyperbolic", "is_hyperbolic_over",
           "is_isotropic", "isometric", "isotropic_vector", "neg", "pfister",
           "represent_value", "scale", "signature", "tensor", "to_json",
           "witt_decompose", "witt_equivalent", "witt_index"]


class QuadForm(Record):
    """A regular diagonal form <d1, ..., dn>, entries nonzero rationals,
    each an int when integral and a Fraction otherwise: 3 and Fraction(3)
    give one form, equal, of one hash and one serialization.

    The square classes and places of the entries, from one factorization
    each, and the invariant record are computed on first use and then kept
    on the (immutable) form.
    """

    entries: tuple[Rational, ...]

    def __init__(self, entries: Iterable[Rational]):
        coerced = tuple(map(as_exact, entries))
        if 0 in coerced:
            raise DomainError("diagonal entries must be nonzero")
        set_field(self, "entries", coerced)

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __call__(self, v: Sequence[Rational]) -> Fraction:
        if len(v) != self.dim:
            raise DomainError(f"vector length {len(v)} != dim {self.dim}")
        return sum((e * as_fraction(x) ** 2 for e, x in zip(self.entries, v)),
                   Fraction(0))

    @cached_property
    def _support(self) -> tuple[tuple[int, ...], list[Place]]:
        return _classes_and_places(self.entries)

    @property
    def square_classes(self) -> tuple[int, ...]:
        """The signed squarefree class of each entry."""
        return self._support[0]

    @property
    def places(self) -> list[Place]:
        """The support places, read off the entries, never off a class."""
        return self._support[1]

    @cached_property
    def invariants(self) -> "Invariants":
        """The invariant record; every public invariant reads it."""
        return _invariants(self.square_classes, self.places)


def diagonal(*entries: Rational) -> QuadForm:
    return QuadForm(entries)


def direct_sum(*forms: QuadForm) -> QuadForm:
    out: tuple[Rational, ...] = ()
    for q in forms:
        out += q.entries
    return QuadForm(out)


def scale(c: Rational, q: QuadForm) -> QuadForm:
    c = as_exact(c)
    if c == 0:
        raise DomainError("scaling by zero destroys regularity")
    return QuadForm(tuple(c * e for e in q.entries))


def neg(q: QuadForm) -> QuadForm:
    return scale(-1, q)


def tensor(q1: QuadForm, q2: QuadForm) -> QuadForm:
    return QuadForm(tuple(a * b for a in q1.entries for b in q2.entries))


def pfister(*slots: Rational) -> QuadForm:
    """The Pfister form <<a1, ..., ak>> = <1, -a1> x ... x <1, -ak>."""
    out = diagonal(1)
    for a in slots:
        out = tensor(out, diagonal(1, -as_exact(a)))
    return out


def hyperbolic(m: int = 1) -> QuadForm:
    """m hyperbolic planes <1, -1>, for an int m >= 0."""
    if type(m) is not int or m < 0:
        raise DomainError(f"hyperbolic wants an int m >= 0, got {m!r}")
    return QuadForm((1, -1) * m)


# --- invariants -----------------------------------------------------------

def _e1(dim: int, det: int) -> int:
    return -det if dim % 4 in (2, 3) else det


class Invariants(Record):
    """The classifying invariants of a form over Q: the first four settle
    isometry, the Clifford class is the Hasse class with the dimension
    correction, and e1 and the kernel dimension derive from them; the
    places it is built over stay on the form."""

    dim: int
    det: int
    signature: int
    hasse: BrauerClass
    clifford: BrauerClass

    def __init__(self, dim: int, det: int, signature: int,
                 hasse: BrauerClass, clifford: BrauerClass):
        set_field(self, "dim", dim)
        set_field(self, "det", det)
        set_field(self, "signature", signature)
        set_field(self, "hasse", hasse)
        set_field(self, "clifford", clifford)

    @property
    def e1(self) -> int:
        return _e1(self.dim, self.det)

    @property
    def witt_class(self) -> tuple[int, BrauerClass, int]:
        """(e1, Clifford class, signature), which classify Witt classes
        over Q."""
        return self.e1, self.clifford, self.signature

    @property
    def kernel_dim(self) -> int:
        """The anisotropic kernel dimension.

        The Witt index over Q is the least local one (Hasse-Minkowski, one
        hyperbolic plane at a time), so the kernel is the largest local
        kernel: |sig| at the real place; at a prime p, for odd dim 3 if
        the Clifford class c ramifies at p else 1, for even dim 4 if e1 is
        a square at p and c ramifies there, 2 if e1 is not a square at p
        (as a squarefree e1 != 1 is at some p), else 0.
        """
        e1 = self.e1
        finite = [v for v in self.clifford.ramified if v != REAL]
        if self.dim % 2:
            local = 3 if finite else 1
        elif any(_local_square_core(e1, v) for v in finite):
            local = 4
        else:
            local = 0 if e1 == 1 else 2
        return max(abs(self.signature), local)


# The builder below works on a diagonal given by its square classes: a
# sequence of signed squarefree ints, as QuadForm.square_classes caches
# them, and its support places.  Nothing in it builds a form or factors
# a number.

def _hasse_symbols(s: Sequence[int]) -> tuple[list, int]:
    # the Hasse class sum_{i<j} (a_i, a_j), grouped by second index, is
    # sum_j (a_1 ... a_{j-1}, a_j): n - 1 symbols instead of n(n - 1)/2;
    # the running product stays a class and ends as the det class
    symbols, prefix = [], s[0] if s else 1
    for x in s[1:]:
        symbols.append((prefix, x))
        prefix = _class_mul(prefix, x)
    return symbols, prefix


def _local_hasse(symbols: Sequence[tuple[int, int]], v) -> int:
    # the Hasse class at the checked place v, from _hasse_symbols
    eps = 1
    for a, x in symbols:
        eps *= _hilbert_core(a, x, v)
    return eps


def _correction_slot(dim: int, det: int) -> int:
    # the Clifford correction in dimension dim is the symbol (-1, b)
    n = dim % 8
    if n in (3, 4):
        return -det
    if n in (5, 6):
        return -1
    if n in (7, 0) and dim > 0:
        return det
    return 1


def _invariants(s: Sequence[int], places: Sequence[Place]) -> Invariants:
    """The record of the diagonal with square classes s, in one pass over
    its support places, as `_classes_and_places` lists them.

    The Clifford bit at each place is the Hasse bit times the correction
    (-1, b), b = +-1 or +-det (not the signed discriminant; pinned by
    C0(<1,1,1>) = (-1,-1) and C(<1,1,1,-1>) split), so no det is factored.
    """
    symbols, det = _hasse_symbols(s)
    b = _correction_slot(len(s), det)
    hasse, clifford = [], []
    for v in places:
        h = _local_hasse(symbols, v)
        if h < 0:
            hasse.append(v)
        if h * _hilbert_core(-1, b, v) < 0:
            clifford.append(v)
    # the classes carry the signs of the entries
    return Invariants(len(s), det, sum(1 if x > 0 else -1 for x in s),
                      BrauerClass(frozenset(hasse)),
                      BrauerClass(frozenset(clifford)))


def e1(q: QuadForm) -> int:
    """Signed discriminant (-1)^(n(n-1)/2) det, as a signed squarefree int."""
    return q.invariants.e1


def signature(q: QuadForm) -> int:
    return q.invariants.signature


def clifford_class(q: QuadForm) -> BrauerClass:
    """The Clifford (Witt) invariant: the Hasse class with the dimension
    correction, constant on Witt classes."""
    return q.invariants.clifford


def e2(q: QuadForm) -> BrauerClass:
    if q.dim % 2:
        raise DomainError("e2 wants an even-dimensional form")
    return clifford_class(q)


def e3(q: QuadForm) -> H3Class:
    """Degree 3 invariant of a form in I^3, as its real-place component."""
    if q.dim % 2 or e1(q) != 1 or not e2(q).is_zero():
        raise DomainError("e3 wants a form in I^3 (even dim, trivial e1, e2)")
    sig = signature(q)
    require(sig % 8 == 0, q)
    return H3Class((sig // 8) % 2)


def witt_index(q: QuadForm) -> int:
    """The Witt index of q, read off its invariants; nothing is searched."""
    return (q.dim - q.invariants.kernel_dim) // 2


# --- isotropy over Q ------------------------------------------------------

# The helpers below take square classes s and places that hold 2, the real
# place and every prime of s, such as QuadForm.places; more change nothing.

def _isotropic(s: Sequence[int], places: Sequence[Place]) -> bool:
    # isotropic iff the kernel is smaller than the form; the kernel is at
    # least |sig| and local kernels have dim <= 4, so the signs decide for
    # definite forms and past dim 4; else the record's kernel_dim does
    n = len(s)
    if n < 2 or not min(s) < 0 < max(s):
        return False
    if n >= 5:
        return True
    return _invariants(s, places).kernel_dim < n


def is_isotropic(q: QuadForm) -> bool:
    """Whether q represents 0 nontrivially over Q (Hasse-Minkowski)."""
    return _isotropic(q.square_classes, q.places)


def _over_gcd(v: Sequence[int]) -> tuple[int, ...]:
    # v divided by the gcd of its entries: the primitive vector on its ray
    g = gcd(*v)
    return tuple(x // g for x in v) if g else tuple(v)


def _pair_shortcut(s: list[int]) -> tuple[int, ...] | None:
    for i, j in combinations(range(len(s)), 2):
        w2 = -s[i] * s[j]
        if w2 > 0:
            w = isqrt(w2)
            if w * w == w2:
                v = [0] * len(s)
                v[i], v[j] = abs(s[j]), w
                return tuple(v)
    return None


def _lagrange_descent(a: int, b: int, pa: Collection[int],
                      pb: Collection[int]) -> tuple[int, int, int]:
    """A nonzero integer solution of x^2 = a y^2 + b z^2.

    a, b are squarefree with primes pa, pb, and the equation is assumed
    solvable.  Classical descent (Cremona-Rusin): a square root t of a mod
    |b|, taken by CRT over pb, factors t^2 - a = b b' w^2, and a solution
    for (a, b') combines with t to one for (a, b).  With |a| <= |b| and
    |t| <= |b|/2, |b'| <= |b|/4 + 1 < |b| for |b| > 1, so the recursion
    ends after O(log |b|) steps; each new (t^2 - a)/b is factored once.
    """
    if abs(a) > abs(b):
        x, z, y = _lagrange_descent(b, a, pb, pa)
        return x, y, z
    if a == 1:
        return 1, 1, 0
    if b == 1:
        return 1, 0, 1
    if abs(b) == 1:
        # |a| <= |b| and neither is 1: (-1, -1), with no real point
        raise DomainError(f"x^2 = {a} y^2 + {b} z^2 has no rational point")
    t = sqrt_mod_squarefree(a, pb)
    if 2 * t > abs(b):
        t -= abs(b)
    k, r = divmod(t * t - a, b)
    require(r == 0, a, b, t)
    if k == 0:
        return t, 1, 0
    b2, pk = _class_primes(k)
    w = isqrt(k // b2)
    x2, y2, z2 = _lagrange_descent(a, b2, pa, pk)
    # (x2 t + a y2)^2 - a (x2 + t y2)^2 = (t^2 - a)(x2^2 - a y2^2)
    x3, y3, z3 = x2 * t + a * y2, x2 + t * y2, b2 * w * z2
    g = gcd(gcd(abs(x3), abs(y3)), abs(z3))
    return x3 // g, y3 // g, z3 // g


def _ternary_zero(s: list[int], places: Sequence[Place]) -> tuple[int, ...]:
    """A primitive zero of the isotropic ternary s: scaled by -s2 it is
    (-s0 s2) x^2 + (-s1 s2) y^2 = (s2 z)^2, where -s0 s2 = u^2 al for
    u = gcd(s0, s2), and -s1 s2 = v^2 be.  The classes al, be come from
    gcds and their primes are the places that divide them."""
    al, be = _class_mul(-s[0], s[2]), _class_mul(-s[1], s[2])
    pa, pb = ([p for p in places if p != REAL and x % p == 0]
              for x in (al, be))
    u, v = gcd(s[0], s[2]), gcd(s[1], s[2])
    x, y, z = _lagrange_descent(al, be, pa, pb)
    # (y/u, z/v, x/s2), scaled by the positive u v |s2|
    w = abs(s[2])
    out = _over_gcd((y * v * w, z * u * w, (x if s[2] > 0 else -x) * u * v))
    require(any(out) and sum(c * t * t for c, t in zip(s, out)) == 0, s, out)
    return out


# the height cap of the splitting-value walk in _int_isotropic, the
# package's one height search
_SPLIT_BOUND = 10**4


def _signed_squarefree_by_height(limit: int):
    """(1, []), (-1, []), (2, [2]), (-2, [2]), ...: every signed
    squarefree int up to limit with its primes, one factor per height."""
    for n in range(1, limit + 1):
        s, primes = _class_primes(n)
        if s == n:
            yield n, primes
            yield -n, primes


def _represents(a: int, b: int, places: Sequence[Place]):
    """A test of whether the anisotropic binary <a, b> represents c, for
    signed squarefree a, b and c, given with the primes of c.

    By Hasse-Minkowski that holds exactly when (c, -ab)_v = (a, b)_v at
    every place v.  The targets are (a, b)_v at the places given, and
    each c is decided there first, the real place (where about half the
    candidates fail on sign) before the primes.  At a prime p of c outside
    the places (a, b)_p = 1 and the condition is (-ab / p) = 1, with p
    from the factorization c came with, so no place is proved prime.
    """
    m = _class_mul(-a, b)
    inside = set(places)
    # (c, m)_R = -1 exactly when c < 0 and m < 0
    real = _hilbert_core(a, b, REAL)
    targets = [(v, _hilbert_core(a, b, v)) for v in places if v != REAL]

    def test(c: int, primes: Iterable[int]) -> bool:
        return ((-1 if c < 0 and m < 0 else 1) == real
                and all(_hilbert_core(c, m, v) == t for v, t in targets)
                and all(p in inside or _legendre(m, p) == 1 for p in primes))
    return test


def _int_isotropic(s: list[int], places: Sequence[Place]) -> tuple[int, ...]:
    """An isotropic integer vector for the signed squarefree diagonal s.

    Caller guarantees isotropy; ternary instances go through the descent
    solver.  A longer diagonal whose halves <s0, s1> and rest are both
    anisotropic is split at the first signed squarefree c, in order of
    height, that <s0, s1> and -rest both represent.  Each candidate is
    decided by Hilbert symbols (`_represents`): first whether <s0, s1>
    represents c, then, for rest = <r0, r1>, whether <-r0, -r1> does; a
    longer rest is tested by `_isotropic` on rest + <c>, and only for
    candidates that pass the first test.  Only c adds places, the primes it
    came with from the walk.
    """
    short = _pair_shortcut(s)
    if short is not None:
        return short
    n = len(s)
    require(n >= 3, s)
    if n == 3:
        return _ternary_zero(s, places)
    rest = s[2:]
    if _isotropic(rest, places):
        return (0, 0) + _int_isotropic(rest, places)
    # both halves anisotropic (no pair is, by the shortcut): find c with
    # <s0, s1, -c> and rest + <c> both isotropic, then stitch the two exact
    # witnesses
    first = _represents(s[0], s[1], places)
    second = _represents(-rest[0], -rest[1], places) if n == 4 else None
    for c, primes in _signed_squarefree_by_height(_SPLIT_BOUND):
        if not first(c, primes):
            continue
        at = [*places, *(p for p in primes if p not in places)]
        if not (second(c, primes) if second else _isotropic((*rest, c), at)):
            continue
        x, y, w = _ternary_zero([s[0], s[1], -c], at)
        require(w != 0, s, c)  # the binary part is anisotropic
        sub = _int_isotropic(rest + [c], at)
        t = sub[-1]
        require(t != 0, s, c, sub)  # as is rest
        # (x t / w, y t / w, sub[:-1]), scaled by the positive |w|
        sign = 1 if w > 0 else -1
        return _over_gcd((sign * x * t, sign * y * t,
                           *(abs(w) * z for z in sub[:-1])))
    raise BoundExceeded(f"no splitting value of height <= {_SPLIT_BOUND}")


def _cleared(entries: Sequence[Rational]) -> list[int]:
    # the integer diagonal D q, D the lcm of the entries' denominators:
    # n_i D / d_i for the entry n_i / d_i
    den = lcm(*(e.denominator for e in entries))
    return [e.numerator * (den // e.denominator) for e in entries]


def isotropic_vector(q: QuadForm) -> tuple[Fraction, ...]:
    """An exact nonzero vector with q(v) = 0, primitive integral entries.

    Each entry is its class s_i times a square, e_i / s_i = (rn_i / rd_i)^2,
    so a zero y of the classes gives the zero y_i rd_i / rn_i of q, which
    is cleared to a primitive int vector and checked as a zero of the
    integer diagonal D q.
    """
    if q.dim == 0 or not is_isotropic(q):
        raise DomainError("form is anisotropic over Q")
    roots = []
    for e, sf in zip(q.entries, q.square_classes):
        # n / (d s) in lowest terms, positive as s has the sign of n: n
        # and d are coprime, and s is squarefree with the primes of odd
        # exponent in n and d
        n, s = abs(e.numerator), abs(sf)
        g = gcd(n, s)
        num, den = n // g, e.denominator * (s // g)
        rn, rd = isqrt(num), isqrt(den)
        require(rn * rn == num and rd * rd == den, e, sf)
        roots.append((rn, rd))
    y = _int_isotropic(list(q.square_classes), q.places)
    m = lcm(*(rn for rn, _ in roots))
    v = _over_gcd([yi * rd * (m // rn) for yi, (rn, rd) in zip(y, roots)])
    require(any(v) and sum(a * x * x for a, x in zip(_cleared(q.entries), v))
            == 0, q, v)
    return tuple(Fraction(x) for x in v)


def represent_value(q: QuadForm, c: Rational) -> tuple[Fraction, ...]:
    """An exact vector with q(v) = c."""
    cf = as_fraction(c)
    if cf == 0:
        raise DomainError("representation of 0 is isotropy; use is_isotropic")
    ext = direct_sum(q, diagonal(-cf))
    try:
        v = isotropic_vector(ext)
    except DomainError:
        raise DomainError(f"form does not represent {cf}") from None
    *w, t = (x.numerator for x in v)
    if t != 0:
        # q(w / t) = c, as D q(w) = D c t^2 over the common denominator D
        # of q and c, checked on the ints that are divided below
        *coeffs, minus_c = _cleared(ext.entries)
        require(sum(a * x * x for a, x in zip(coeffs, w))
                == -minus_c * t * t, q, cf, v)
        return tuple(Fraction(x, t) for x in w)
    # w is a zero of q itself; slide along a hyperbolic direction
    k = next(i for i, x in enumerate(w) if x != 0)
    dk = q.entries[k]
    b = dk * w[k]                          # B(w, e_k), nonzero
    x = Fraction(cf - dk, 2 * b)           # q(x w + e_k) = 2 x b + dk
    out = tuple(x * wi + (1 if i == k else 0) for i, wi in enumerate(w))
    require(q(out) == cf, q, cf, out)
    return out


# --- Witt decomposition ---------------------------------------------------

class WittClass(Record):
    """Anisotropic kernel plus Witt index."""

    kernel: QuadForm
    index: int

    def __init__(self, kernel: QuadForm, index: int):
        set_field(self, "kernel", kernel)
        set_field(self, "index", index)


def _peel(dim: int, d: int, c: BrauerClass, places: Sequence[Place],
          x: int, m: int) -> tuple[int, BrauerClass]:
    """(e1, Clifford class) of k with <x, ..., x> (m copies) + k of dim
    dim, e1 d and Clifford class c, for x = +-1, or m = 1 and x signed
    squarefree with its primes in places: each symbol below then ramifies
    only at the places and is read there, so nothing is factored."""
    det = _e1(dim, d)              # _e1 is its own inverse
    xm = x ** m
    det_k = _class_mul(det, xm)
    # Hasse(K) = Hasse(k) + (x^m, det k) + C(m, 2) (x, x); each Clifford
    # class is its Hasse class plus the dimension correction (-1, b)
    symbols = [(-1, _correction_slot(dim, det)), (xm, det_k),
               (-1, _correction_slot(dim - m, det_k))]
    if m * (m - 1) // 2 % 2:
        symbols.append((x, x))
    ramified = {v for v in places
                if prod(_hilbert_core(a, b, v) for a, b in symbols) < 0}
    return _e1(dim - m, det_k), BrauerClass(c.ramified ^ ramified)


def _anisotropic_rep(inv: Invariants, places: Sequence[Place]) -> tuple:
    """An anisotropic form with the e1, Clifford class and signature of
    inv, of its kernel dimension, in signed squarefree ints, and places
    holding its primes: those of inv's form, given, and its slot's.  Values
    are split off (`_peel`) down to a binary <b, -b e> of Clifford class
    (b, e), and b is solved for at the places.  A kernel K of dim >= 4
    represents x = -1 if negative definite, else x = 1 (K + <-x> is
    indefinite of dim >= 5, so isotropic), and past dim 4 K is definite, so
    all its units are x; a ternary of e1 d and Clifford class c is
    -d <-al, -be, al be> for al = nonsquare_slot(c), so it represents d al."""
    dim0, d, c = inv.kernel_dim, inv.e1, inv.clifford
    if dim0 < 2:
        return diagonal(*[d] * dim0), places
    x = -1 if inv.signature == -dim0 else 1
    split = [x] * (dim0 - 3)        # no units below dim 4
    if split:
        d, c = _peel(dim0, d, c, places, x, len(split))
    if dim0 >= 3:
        y = _class_mul(d, nonsquare_slot(c.ramified))
        d, c = _peel(3, d, c, places, y, 1)
        split.append(y)
    b, outside = second_slot(d, c, places)
    return diagonal(*split, b, _class_mul(-b, d)), [*places, *outside]


def witt_decompose(q: QuadForm) -> WittClass:
    """q = (anisotropic kernel) + index * (hyperbolic plane).

    The kernel dimension is read off (e1, Clifford, signature), which
    classify Witt classes over Q; the kernel is then built with those
    invariants rather than peeled off vector by vector, and verified once
    before it is returned: each entry must be the product of the places
    it came with that divide it, and the kernel must have q's Witt class.
    """
    inv = q.invariants
    kernel, at = _anisotropic_rep(inv, q.places)
    s = kernel.entries
    primes = {2}
    for x in s:
        require(type(x) is int, q, kernel)
        ps = {p for p in at if p != REAL and x % p == 0}
        require(prod(ps) == abs(x), q, kernel)
        primes.update(ps)
    # signed squarefree int entries are their own square classes
    vars(kernel)["_support"] = (s, sorted(primes) + [REAL])
    # the record of the kernel's own entries: same Witt class, and a form
    # whose kernel dimension is its dimension is anisotropic
    k = kernel.invariants
    require(k.witt_class == inv.witt_class and k.kernel_dim == kernel.dim,
            q, kernel)
    return WittClass(kernel, (q.dim - kernel.dim) // 2)


# --- classification -------------------------------------------------------

def isometric(q1: QuadForm, q2: QuadForm) -> bool:
    """Isometry over Q: dimension, determinant class, Hasse class and
    signature settle it, so the invariant records agree."""
    return q1.invariants == q2.invariants


def witt_equivalent(q1: QuadForm, q2: QuadForm) -> bool:
    """Witt equivalence over Q, read off the two cached records."""
    return q1.invariants.witt_class == q2.invariants.witt_class


# --- behaviour over a quadratic extension ---------------------------------

def is_hyperbolic_over(q: QuadForm, d: Rational) -> bool:
    """Whether q becomes hyperbolic over Q(sqrt d), decided place by place.

    No arithmetic in the extension: the Clifford class of the extended form
    is the restriction, which dies at exactly the ramified places where d
    stays a nonsquare locally.
    """
    sd = squarefree_part(d)
    if sd == 1:
        raise DomainError("d must be a nonsquare")
    if q.dim % 2:
        raise DomainError("odd-dimensional forms are never hyperbolic")
    inv = q.invariants
    if inv.e1 not in (1, sd) or (sd > 0 and inv.signature != 0):
        return False
    return not any(_local_square_core(sd, v) for v in inv.clifford.ramified)


# --- serialization --------------------------------------------------------

def to_json(q: QuadForm) -> dict:
    return {"entries": [str(e) for e in q.entries]}


def from_json(data: dict) -> QuadForm:
    if not isinstance(data, dict) or "entries" not in data:
        raise DomainError("quadratic form JSON needs an 'entries' list")
    raw = data["entries"]
    if not isinstance(raw, list):
        raise DomainError("'entries' must be a list")
    return QuadForm(tuple(rational_from_json(x) for x in raw))
