"""Exact arithmetic over Q: square classes, places, Hilbert symbols.

Everything here works with int and Fraction only.  A square class is
represented by its unique signed squarefree integer, so two rationals lie in
the same class of Q*/Q*^2 iff squarefree_part returns the same int.  Places
of Q are the real place (the string "real") and the rational primes.  A
number's class and its primes come from one factorization, `_class_primes`,
and travel with the number, so no consumer factors it again.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Sequence, Union

from .errors import BoundExceeded, DomainError, require

# hilbert_symbol and is_local_square prove their place first, for places
# from outside; the package calls their cores with places factor proved
__all__ = ["FACTOR_BOUND", "MAX_ENTRY_DIGITS", "MILLER_RABIN_BOUND", "Place",
           "REAL", "Rational", "as_exact", "as_fraction", "check_place",
           "factor", "hilbert_symbol", "is_local_square", "is_prime",
           "ramified_places", "rational_from_json", "sqrt_mod_squarefree",
           "square_class_product", "squarefree_part"]

Rational = Union[int, Fraction]

REAL = "real"
Place = Union[str, int]


def as_fraction(x: Rational) -> Fraction:
    # a Fraction is immutable, so it is returned as it is
    if type(x) is Fraction:
        return x
    if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
        raise DomainError(f"expected an exact rational, got {type(x).__name__}")
    return Fraction(x)


def as_exact(x: Rational) -> Rational:
    """x in its one stored type: an int when it is integral, else a
    Fraction; refused as by as_fraction.  Equal values, hashes and str()
    agree across the two, so the choice never shows in a result."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        x = as_fraction(x)
    return x.numerator if x.denominator == 1 else x


# Entries are refused past this many decimal digits, or past this decimal
# exponent, before any arithmetic: "1e400000" would otherwise be built as
# an exact 400001-digit integer and then trial-divided.
MAX_ENTRY_DIGITS = 1000
_ENTRY_BOUND = 10 ** MAX_ENTRY_DIGITS


def _oversized(text: str) -> bool:
    if sum(ch.isdigit() for ch in text) > MAX_ENTRY_DIGITS:
        return True
    _, marker, exponent = text.upper().partition("E")
    try:
        return bool(marker) and abs(int(exponent)) > MAX_ENTRY_DIGITS
    except ValueError:
        return False    # malformed, and Fraction refuses it


def rational_from_json(x) -> Fraction:
    """The rational a JSON value spells exactly: an int or a string such as
    "-3", "5/8" or "1.5e3".  Floats are refused rather than read as the
    decimal they print as, since 1.1 is not 11/10 in binary; so is any
    entry with more than MAX_ENTRY_DIGITS digits or a larger exponent, and
    any text Fraction does not read.  Every refusal is a DomainError."""
    if isinstance(x, bool) or not isinstance(x, (int, str)):
        raise DomainError(f"expected an exact rational string or integer, "
                          f"got {type(x).__name__} {x!r}")
    if (abs(x) >= _ENTRY_BOUND if isinstance(x, int) else _oversized(x)):
        raise DomainError(f"entry exceeds {MAX_ENTRY_DIGITS} digits or "
                          f"exponent {MAX_ENTRY_DIGITS}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational {x!r}: {exc}") from None


# Deterministic Miller-Rabin on the first 13 prime bases is proven correct
# below this bound (Sorenson and Webster, 2015); above it is_prime refuses.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MILLER_RABIN_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n, exact below MILLER_RABIN_BOUND.

    Trial division by the bases settles everything below 43^2, which
    covers the places seen on nearly every call; larger n go through the
    strong probable prime test to all 13 bases.  Raises BoundExceeded
    from MILLER_RABIN_BOUND on, where no base set is proven.
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
        if p * p > n:
            return True
    if n < 43 * 43:
        return True
    if n >= MILLER_RABIN_BOUND:
        raise BoundExceeded(f"primality of {n} is not decided above "
                            f"{MILLER_RABIN_BOUND}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_place(v: Place) -> Place:
    if v == REAL:
        return v
    if isinstance(v, int) and not isinstance(v, bool) and is_prime(v):
        return v
    raise DomainError(f"not a place of Q: {v!r}")


# trial division in factor, and second_slot's generators past its rows,
# stop here; past it a cofactor must be proven prime (or the square of one)
FACTOR_BOUND = 10**6


def _strip(m: int, p: int, out: list) -> int:
    # divide the prime p out of m, recording (p, e) in out
    e = 0
    while m % p == 0:
        m //= p
        e += 1
    out.append((p, e))
    return m


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of a positive integer as ((p, e), ...), p ascending.

    Trial division up to FACTOR_BOUND by 2, 3 and the k = 6j +- 1, which
    hold every prime past 3; a composite k never divides, its primes being
    gone.  Then a surviving cofactor above the bound's square must be a
    prime or the square of one; otherwise a prime factor may have been
    missed, so we refuse rather than guess.
    """
    if n <= 0:
        raise DomainError("factor() wants a positive integer")
    out = []
    m = n
    bound = FACTOR_BOUND
    for p in (2, 3):
        if p <= bound and m % p == 0:
            m = _strip(m, p, out)
    # k = 6j - 1 and k + 2 = 6j + 1; a k + 2 that divides m past sqrt(m)
    # is m itself, stripped here as the cofactor would be appended below
    for k in range(5, bound + 1, 6):
        if k * k > m:
            break
        if m % k == 0:
            m = _strip(m, k, out)
        if m % (k + 2) == 0 and k + 2 <= bound:
            m = _strip(m, k + 2, out)
    if m > bound * bound:
        r = isqrt(m)
        if r * r == m and is_prime(r):
            return (*out, (r, 2))
        if not is_prime(m):
            raise BoundExceeded(f"cofactor {m} not factored within bound "
                                f"{bound}")
    if m > 1:
        out.append((m, 1))
    return tuple(out)


def _class_primes(x: Rational) -> tuple[int, list[int]]:
    # the signed squarefree class of x and its primes, the one way from a
    # number to both: x's numerator and denominator are coprime, so each is
    # factored on its own (cached); the primes of odd exponent make the class
    f = x if type(x) is int else as_fraction(x)
    num, den = f.numerator, f.denominator
    if num == 0:
        raise DomainError("0 has no square class")
    core, primes = 1, []
    for p, e in factor(abs(num)) + (factor(den) if den > 1 else ()):
        if e % 2:
            core *= p
            primes.append(p)
    return (-core if num < 0 else core), primes


def squarefree_part(x: Rational) -> int:
    """The signed squarefree integer representing the square class of x."""
    return _class_primes(x)[0]


def _class_mul(x: int, y: int) -> int:
    # the square class of xy for signed squarefree x, y: (x/g)(y/g) with
    # g = gcd(x, y), so a running product of classes is never factored
    g = gcd(x, y)
    return (x // g) * (y // g)


def _coprime_base(ns: Sequence[int]) -> list[tuple[int, int]]:
    # pairwise coprime (b, e), b > 1, with prod(ns) = prod b^e, by gcds
    # alone: a part shared by two n is split off, never factored
    base: list[tuple[int, int]] = []
    todo = [(n, 1) for n in ns]
    while todo:
        m, e = todo.pop()
        if m == 1:
            continue
        for i, (b, f) in enumerate(base):
            g = gcd(m, b)
            if g > 1:
                del base[i]
                todo += [(m // g, e), (b // g, f), (g, e + f)]
                break
        else:
            base.append((m, e))
    return base


def square_class_product(*xs: Rational) -> int:
    """Squarefree part of a product, never taken by factoring the product.

    The terms are usually individually within the trial-division budget
    while their product is far beyond it, so never multiply first.  Their
    numerators and denominators are split by gcds into coprime parts, and
    only the parts of odd total exponent are factored: each divides the
    reduced product, and a prime shared by two terms (one numerator and
    another denominator, say) cancels without being factored.
    """
    sign, parts = 1, []
    for x in xs:
        if type(x) is not int:
            x = as_fraction(x)
            parts.append(x.denominator)
            x = x.numerator
        if x == 0:
            raise DomainError("0 has no square class")
        if x < 0:
            sign = -sign
        parts.append(abs(x))
    for b, e in _coprime_base(parts):
        if e % 2:
            sign *= squarefree_part(b)  # coprime parts: classes multiply
    return sign


def _legendre(a: int, p: int) -> int:
    # Euler's criterion, for an odd p the caller already knows is prime:
    # one from factor, or a place it proved
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def _sqrt_mod_prime(a: int, p: int) -> int:
    # a square root of a mod p (Tonelli-Shanks) for a prime p from factor
    if p == 2:
        return a % 2
    a %= p
    if a == 0:
        return 0
    if _legendre(a, p) != 1:
        raise DomainError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q 2^s, q odd, and walk the 2-Sylow subgroup down
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while _legendre(z, p) != -1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t, 0
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def sqrt_mod_squarefree(a: int, primes: Iterable[int]) -> int:
    """A square root of a mod the product of the distinct primes given, by
    CRT; the caller knows the primes, so its modulus is never factored."""
    root, mod = 0, 1
    for p in primes:
        rp = _sqrt_mod_prime(a, p)
        # lift the pair (root mod mod, rp mod p) to mod*p
        inv = pow(mod % p, -1, p)
        root = root + mod * ((rp - root) * inv % p)
        mod *= p
    return root % mod


# bounded: a large form's invariants evaluate one (prefix, entry, place)
# key per symbol, and keeping them all grows with dimension times places
@lru_cache(maxsize=1 << 14)
def _hilbert_core(a: int, b: int, v: Place) -> int:
    # a, b signed squarefree, so valuations are 0 or 1 and the unit parts
    # stay integers; everything runs on ints.  v is a place the caller
    # checked or took from factor, so it is not proved prime again
    if v == REAL:
        return -1 if (a < 0 and b < 0) else 1
    p = v
    alpha, u = (1, a // p) if a % p == 0 else (0, a)
    beta, w = (1, b // p) if b % p == 0 else (0, b)
    if p != 2:
        sign = 1
        if alpha and beta and (p - 1) // 2 % 2:
            sign = -sign
        if beta:
            sign *= _legendre(u, p)
        if alpha:
            sign *= _legendre(w, p)
        return sign
    # the mod 2 classes of (u - 1)/2 and (u^2 - 1)/8 only depend on u mod 8
    eps_u, eps_w = (u - 1) // 2 % 2, (w - 1) // 2 % 2
    omega_u, omega_w = (u * u - 1) // 8 % 2, (w * w - 1) // 8 % 2
    exponent = eps_u * eps_w + alpha * omega_w + beta * omega_u
    return -1 if exponent % 2 else 1


def hilbert_symbol(a: Rational, b: Rational, v: Place) -> int:
    """The Hilbert symbol (a, b)_v in {+1, -1}.

    Computed after reduction to square-class representatives, so the cache
    only ever sees signed squarefree pairs.
    """
    check_place(v)
    return _hilbert_core(squarefree_part(a), squarefree_part(b), v)


def _classes_and_places(xs: Iterable[Rational]) -> tuple[tuple, list]:
    # the classes of xs, and 2, their primes, then the real place: the only
    # places where a symbol of products of those classes can ramify
    pairs = [_class_primes(x) for x in xs]
    primes = {2, *(p for _, ps in pairs for p in ps)}
    return tuple(s for s, _ in pairs), sorted(primes) + [REAL]


def ramified_places(a: Rational, b: Rational) -> frozenset[Place]:
    """All places where (a, b)_v = -1.  Always of even cardinality."""
    (sa, sb), places = _classes_and_places((a, b))
    ram = frozenset(v for v in places if _hilbert_core(sa, sb, v) == -1)
    require(len(ram) % 2 == 0, (sa, sb, ram))
    return ram


def is_local_square(a: Rational, v: Place) -> bool:
    """Whether a is a square in the completion at v."""
    check_place(v)
    return _local_square_core(squarefree_part(a), v)


def _local_square_core(s: int, v: Place) -> bool:
    # s signed squarefree and v a checked place, so nothing is factored
    if s == 1:
        return True
    if v == REAL:
        return s > 0
    # s squarefree: v | s already means odd valuation
    if s % v == 0:
        return False
    if v == 2:
        return s % 8 == 1
    return _legendre(s, v) == 1
