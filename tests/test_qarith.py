"""Arithmetic layer: square classes, Legendre/Hilbert symbols, local squares.

The Hilbert symbol at a finite place is checked against an independent
norm-class oracle: (a, b)_p = +1 iff b is a norm from Q_p(sqrt a), and the
norm classes x^2 - a y^2 can be sampled exactly over Z.  No formula from the
implementation is reused in the oracle.
"""

from fractions import Fraction
from math import isqrt
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import qarith
from wittforge.errors import BoundExceeded, DomainError
from wittforge.qarith import (
    MAX_ENTRY_DIGITS,
    MILLER_RABIN_BOUND,
    REAL,
    _legendre,
    as_exact,
    as_fraction,
    factor,
    hilbert_symbol,
    is_local_square,
    is_prime,
    ramified_places,
    rational_from_json,
    square_class_product,
    squarefree_part,
)

nonzero_rationals = st.fractions(
    min_value=Fraction(-400), max_value=Fraction(400), max_denominator=40
).filter(lambda f: f != 0)


# --- independent oracles -------------------------------------------------

def _square_class_key_2adic(n: int) -> tuple[int, int]:
    """(v mod 2, odd part mod 8) classifies Q_2 square classes of nonzero ints."""
    v = 0
    while n % 2 == 0:
        n //= 2
        v += 1
    return (v % 2, n % 8)


def _square_class_key_odd(n: int, p: int) -> tuple[int, int]:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    squares = {x * x % p for x in range(1, p)}
    return (v % 2, 1 if n % p in squares else -1)


def _norm_class_oracle_2adic(a: int, b: int) -> int:
    """Sample square classes of x^2 - a y^2 over a box; (a,b)_2 = +1 iff the
    class of b shows up.  Needs |a|, |b| small; the box is provably enough for
    the squarefree inputs used in the tests (all classes are hit early)."""
    classes = set()
    for x in range(0, 512):
        for y in range(0, 512):
            n = x * x - a * y * y
            if n != 0:
                classes.add(_square_class_key_2adic(n))
    if _square_class_key_2adic(a) != (0, 1):
        # sqrt(a) not in Q_2 => norms have index 2 among the 8 classes
        assert len(classes) == 4, (a, sorted(classes))
    return 1 if _square_class_key_2adic(b) in classes else -1


def _norm_class_oracle_odd(a: int, b: int, p: int) -> int:
    classes = set()
    for x in range(0, 4 * p * p):
        for y in range(0, 4 * p * p):
            n = x * x - a * y * y
            if n != 0:
                classes.add(_square_class_key_odd(n, p))
    return 1 if _square_class_key_odd(b, p) in classes else -1


# --- frozen values -------------------------------------------------------

def test_squarefree_part_values():
    assert squarefree_part(18) == 2
    assert squarefree_part(-18) == -2
    assert squarefree_part(Fraction(4, 9)) == 1
    assert squarefree_part(Fraction(-8, 3)) == -6
    assert squarefree_part(1) == 1
    with pytest.raises(DomainError):
        squarefree_part(0)


def test_squarefree_part_factors_numerator_and_denominator_apart():
    # each part is a prime within trial division, but their product is
    # a cofactor past FACTOR_BOUND**2 that factor refuses
    assert squarefree_part(Fraction(1000003, 1000033)) == 1000036000099
    assert squarefree_part(Fraction(-1000003, 1000033)) == -1000036000099
    assert squarefree_part(Fraction(-4, 1000033 ** 2)) == -1


def test_square_class_product_factors_no_shared_part():
    # p q is a cofactor factor refuses; shared by two terms it cancels by
    # gcds, and apart each prime is within the budget
    p, q = 1000003, 1000033
    assert square_class_product(Fraction(3 * p * q, 5), Fraction(-7, p * q)) \
        == -105
    assert square_class_product(2 * p, Fraction(q, 2), p * p) == p * q
    assert square_class_product() == 1
    with pytest.raises(DomainError):
        square_class_product(3, 0)


@given(st.lists(nonzero_rationals, max_size=6))
@settings(max_examples=200)
def test_square_class_product_is_the_class_of_the_product(xs):
    product = Fraction(1)
    for x in xs:
        product *= x
    assert square_class_product(*xs) == squarefree_part(product)


@given(st.integers(min_value=-10**6, max_value=10**6).filter(bool),
       st.integers(min_value=1, max_value=10**6))
@settings(max_examples=100)
def test_fractions_are_read_as_they_are(n, d):
    # a Fraction is immutable, so it is not wrapped again, and its class
    # is that of numerator * denominator
    x = Fraction(n, d)
    assert as_fraction(x) is x
    assert squarefree_part(x) == squarefree_part(n * d)
    assert as_fraction(n) == n and type(as_fraction(n)) is Fraction


def test_factor_refuses_unfactored_cofactor():
    with pytest.raises(BoundExceeded):
        factor((10**7 + 19) * (10**7 + 79))


def test_is_prime_small():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def _trial_division_is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime_matches_trial_division():
    # straddles the switch from trial division to Miller-Rabin at 43^2
    for n in range(-3, 20000):
        assert is_prime(n) == _trial_division_is_prime(n), n


def test_is_prime_rejects_strong_pseudoprimes():
    # each is the least composite passing the strong test to the first
    # k prime bases, for k = 1, 2, 3, 4, 5, 6, 7, 9, 12; the base 41
    # catches the last, and the k = 13 one is where the proof stops
    for n in (2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 341550071728321, 3825123056546413051,
              318665857834031151167461):
        assert not is_prime(n), n
    for n in (561, 41041, 825265, 2**67 - 1, (10**7 + 19) * (10**7 + 79)):
        assert not is_prime(n), n


def test_is_prime_large_primes():
    for n in (2**31 - 1, 2**61 - 1, 10**18 + 9, 10**24 + 7):
        assert n < MILLER_RABIN_BOUND and is_prime(n), n


def test_is_prime_refuses_above_its_proven_range():
    with pytest.raises(BoundExceeded):
        is_prime(MILLER_RABIN_BOUND)       # itself a strong pseudoprime
    with pytest.raises(BoundExceeded):
        is_prime(2**89 - 1)


def test_factor_accepts_a_large_prime_cofactor():
    assert factor(2 * (2**61 - 1)) == ((2, 1), (2**61 - 1, 1))


def test_factor_accepts_a_prime_square_cofactor():
    p = 1000003
    assert factor(p * p) == ((p, 2),)
    assert factor(12 * 97149539891 ** 2) == ((2, 2), (3, 1), (97149539891, 2))
    assert squarefree_part(-3 * p * p) == -3
    # the square of a composite cofactor stays refused
    with pytest.raises(BoundExceeded):
        factor((1000003 * 1000033) ** 2)


def test_rational_from_json_caps_entry_size():
    cap = MAX_ENTRY_DIGITS
    assert rational_from_json("9" * cap) == 10 ** cap - 1
    assert rational_from_json(10 ** cap - 1) == 10 ** cap - 1
    assert rational_from_json(f"-1e{cap}") == -10 ** cap
    assert rational_from_json(f"1E-{cap}") == Fraction(1, 10 ** cap)
    for bad in ("9" * (cap + 1), f"1e{cap + 1}", "1e400000", "2.5e-400000",
                "1/" + "3" * (cap + 1), 10 ** cap, -10 ** cap):
        with pytest.raises(DomainError):
            rational_from_json(bad)


def test_rational_from_json():
    assert rational_from_json("-5/8") == Fraction(-5, 8)
    assert rational_from_json(" 3 ") == 3
    assert rational_from_json(-7) == -7
    for bad in (1.1, 2.0, True, None, [1], {"n": 1}):
        with pytest.raises(DomainError):
            rational_from_json(bad)
    with pytest.raises(ValueError):
        rational_from_json("sqrt2")


def test_legendre_exhaustive_vs_squares():
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for a in range(1, p):
            want = 1 if a in squares else -1
            assert _legendre(a, p) == want


def test_hilbert_real():
    assert hilbert_symbol(-1, -1, REAL) == -1
    assert hilbert_symbol(-1, 2, REAL) == 1
    assert hilbert_symbol(3, 5, REAL) == 1


def test_hilbert_2adic_against_norm_oracle():
    pairs = [(-1, -1), (-1, 2), (2, 3), (-2, -3), (3, 3), (5, 2), (-5, 6),
             (2, 2), (-1, 7), (6, -10), (7, 7), (-6, -6)]
    for a, b in pairs:
        assert hilbert_symbol(a, b, 2) == _norm_class_oracle_2adic(a, b), (a, b)


def test_hilbert_oddp_against_norm_oracle():
    for p in (3, 5):
        pairs = [(-1, -1), (-1, p), (p, p), (2, p), (-p, 2), (6, 10), (-2, -3)]
        for a, b in pairs:
            assert hilbert_symbol(a, b, p) == _norm_class_oracle_odd(a, b, p), (a, b, p)


def test_ramified_places_values():
    assert ramified_places(-1, -1) == frozenset({REAL, 2})
    assert ramified_places(2, 5) == frozenset({2, 5})
    assert ramified_places(1, 7) == frozenset()
    assert ramified_places(-1, 3) == frozenset({2, 3})
    assert ramified_places(-1, -3) == frozenset({REAL, 3})
    # (17, 89) splits everywhere: 89 = 4 mod 17 is a square and reciprocity
    # handles the rest; the class ramified exactly at {17, 89} needs a
    # different symbol.
    assert ramified_places(17, 89) == frozenset()


def test_is_local_square_values():
    assert is_local_square(-1, 5)
    assert not is_local_square(-1, 3)
    assert not is_local_square(-1, REAL)
    assert is_local_square(2, 7)
    assert not is_local_square(2, 5)
    assert is_local_square(17, 2)        # 17 = 1 mod 16
    assert not is_local_square(5, 2)
    assert is_local_square(Fraction(9, 4), 2)


# --- structural properties ----------------------------------------------

@given(nonzero_rationals, nonzero_rationals)
def test_square_class_invariance(a, b):
    # the symbol only depends on square classes
    for v in (REAL, 2, 3, 5):
        assert hilbert_symbol(a * b * b, a, v) == hilbert_symbol(a, a, v)


@given(nonzero_rationals, nonzero_rationals, nonzero_rationals)
@settings(max_examples=60)
def test_hilbert_bilinear(a, b, c):
    for v in (REAL, 2, 3, 7):
        lhs = hilbert_symbol(a, b * c, v)
        assert lhs == hilbert_symbol(a, b, v) * hilbert_symbol(a, c, v)


@given(nonzero_rationals, nonzero_rationals)
def test_hilbert_symmetric_and_steinberg(a, b):
    for v in (REAL, 2, 5):
        assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)
    if a != 1:
        for v in (REAL, 2, 5):
            assert hilbert_symbol(a, 1 - a, v) == 1 or a == 1


@given(nonzero_rationals, nonzero_rationals)
@settings(max_examples=80)
def test_product_formula(a, b):
    prod = 1
    for v in ramified_places(a, b):
        prod *= hilbert_symbol(a, b, v)
    assert prod == 1


@given(nonzero_rationals)
def test_local_square_iff_trivial_symbols(a):
    # a square at v iff (a, b)_v = 1 for the generating b's
    for v in (2, 3, REAL):
        if is_local_square(a, v):
            for b in (-1, 2, 3, 5, -6):
                assert hilbert_symbol(a, b, v) == 1


def _ref_factor(n: int, bound: int):
    # trial division by every int up to bound, then the same cofactor rule
    # as factor: the refusal text is compared too
    out, m = [], n
    for p in range(2, bound + 1):
        if p * p > m:
            break
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if e:
            out.append((p, e))
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


def _factor_outcome(call, n, *bound):
    try:
        return call(n, *bound)
    except BoundExceeded as exc:
        return str(exc)


def test_factor_by_primes_matches_trial_division_by_every_int():
    # seeded ints up to 10^13 and products of the primes that straddle
    # FACTOR_BOUND = 10^6: 999983 is the last prime below it, 1000003 the
    # first above
    rng = Random(30)
    bound = qarith.FACTOR_BOUND
    edges = [999983, 999983 ** 2, 1000003, 1000003 ** 2, 999979 * 999983,
             999983 * 1000003, 2 * 3 * 5 * 7 * 999983, 6 * 1000003 ** 2,
             1000003 * 1000033, 10 ** 12, 10 ** 12 + 39, 10 ** 13 - 1]
    numbers = edges + [rng.randint(1, 10 ** 13) for _ in range(40)] + [
        rng.randint(1, 10 ** 7) for _ in range(200)]
    for n in numbers:
        assert (_factor_outcome(factor, n)
                == _factor_outcome(_ref_factor, n, bound)), n


def test_factor_honours_a_patched_bound(monkeypatch):
    # every bound from 1 to 40, so the wheel's first candidates 2, 3, 5, 7
    # and each 6j +- 1 sit on either side of the bound, on every n < 1500
    factor.cache_clear()
    try:
        for bound in range(1, 41):
            monkeypatch.setattr(qarith, "FACTOR_BOUND", bound)
            for n in range(1, 1500):
                assert (_factor_outcome(factor, n)
                        == _factor_outcome(_ref_factor, n, bound)), (bound, n)
            factor.cache_clear()
    finally:
        monkeypatch.undo()
        factor.cache_clear()


def test_as_exact_stores_integral_values_as_ints():
    three = as_exact(Fraction(6, 2))
    assert three == 3 and type(three) is int
    x = Fraction(7, 2)
    assert as_exact(x) is x and as_exact(5) == 5
    for bad in (1.0, True, "3", None):
        with pytest.raises(DomainError):
            as_exact(bad)
