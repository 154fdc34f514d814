"""Quadratic form invariants, isotropy, witnesses, Witt decomposition.

Isotropy gets three oracles independent of the library's kernel-dimension
criterion: the classical two/three-square characterizations for <1,1,-n>
and <1,1,1,-n>, the per-place Hasse conditions for dims 3 and 4 written
with pairwise Hilbert symbols, and a brute-force box search on the
positive side.  `oracles` decides isotropy place by place with no code
from the package.  The Clifford table is pinned by hypothesis tests of Witt
invariance across every dimension residue.
"""

import json
import sys
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import gcd, isqrt
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import cohomology, qarith, quadform
from wittforge.cohomology import ZERO, H3Class, brauer_from_symbol
from wittforge.errors import BoundExceeded, DomainError
from wittforge.cli import main
from wittforge.qarith import (REAL, _local_square_core, factor,
                              hilbert_symbol, is_local_square,
                              ramified_places, square_class_product,
                              squarefree_part)
from wittforge.quadform import (
    QuadForm,
    _classes_and_places,
    _hasse_symbols,
    _isotropic,
    _lagrange_descent,
    _local_hasse,
    clifford_class,
    diagonal,
    direct_sum,
    e1,
    e2,
    e3,
    hyperbolic,
    is_hyperbolic_over,
    is_isotropic,
    isometric,
    isotropic_vector,
    neg,
    pfister,
    represent_value,
    scale,
    signature,
    tensor,
    to_json,
    from_json,
    witt_decompose,
    witt_equivalent,
    witt_index,
)
from wittforge.quat import algebra

import oracles


def _support_places(xs):
    # 2, the primes of the classes of xs, then the real place
    return _classes_and_places(xs)[1]

entries_strategy = st.lists(
    st.integers(min_value=-30, max_value=30).filter(lambda n: n != 0),
    min_size=1, max_size=7,
).map(lambda xs: diagonal(*xs))


def _two_square_oracle(n: int) -> bool:
    """n > 0 is a sum of two rational squares iff no prime = 3 mod 4 divides
    its squarefree part."""
    m = abs(squarefree_part(n))
    p = 2
    while p * p <= m:
        if m % p == 0:
            if p % 4 == 3:
                return False
            m //= p
        else:
            p += 1
    return m % 4 != 3


def _three_square_oracle(n: int) -> bool:
    """n > 0 is a sum of three rational squares iff its squarefree part is
    not 7 mod 8."""
    return abs(squarefree_part(n)) % 8 != 7


def test_isotropy_vs_two_squares():
    for n in range(1, 80):
        q = diagonal(1, 1, -n)
        assert is_isotropic(q) == _two_square_oracle(n), n


def test_isotropy_vs_three_squares():
    for n in range(1, 80):
        q = diagonal(1, 1, 1, -n)
        assert is_isotropic(q) == _three_square_oracle(n), n


def test_isotropy_frozen():
    assert not is_isotropic(diagonal(1, 1, 1))
    assert is_isotropic(diagonal(1, 2, -3))
    assert not is_isotropic(diagonal(1, 1, -7))
    assert is_isotropic(diagonal(1, 1, 1, 1, -7))
    assert not is_isotropic(diagonal(2, 3, 5))          # definite
    assert not is_isotropic(diagonal(1, -3))
    assert is_isotropic(diagonal(3, -27))
    assert not is_isotropic(diagonal(5))
    assert is_isotropic(diagonal(Fraction(1, 2), Fraction(-1, 8)))


@given(entries_strategy)
@settings(max_examples=60)
def test_isotropic_forms_yield_exact_zeros(q):
    assert is_isotropic(q) == _local_isotropic(q)
    if is_isotropic(q):
        v = isotropic_vector(q)
        assert q(v) == 0 and any(v)


def test_represented_values_by_symbols_match_isotropy():
    # the splitting-value walk decides each candidate c by Hilbert symbols;
    # the walk's two tests are this one, for <s0, s1> and for <-r0, -r1>
    rng = Random(11)
    values = [c for n in range(1, 301) if squarefree_part(n) == n
              for c in (n, -n)]
    binaries = 0
    while binaries < 30:
        a, b = (squarefree_part(rng.choice((1, -1)) * rng.randint(1, 400))
                for _ in range(2))
        places = _support_places((a, b))
        if _isotropic((a, b), places):
            continue
        binaries += 1
        test = quadform._represents(a, b, places)
        assert [c for c in values
                if test(c, [p for p, _ in factor(abs(c))])] == [
            c for c in values
            if _isotropic((a, b, -c), _support_places((a, b, c)))], (a, b)


def test_descent_solves_every_small_conic():
    # squarefree |a|, |b| <= 16, where |b'| <= |b|/4 + 1 shrinks least:
    # descent ends by itself on each solvable pair, and refuses each pair
    # (a, b) that ramifies somewhere
    small = [n for n in range(-16, 17) if n and squarefree_part(n) == n]
    solved = 0
    for a, b in product(small, repeat=2):
        primes = [[p for p, _ in factor(abs(x))] for x in (a, b)]
        if ramified_places(a, b):
            with pytest.raises(DomainError):
                _lagrange_descent(a, b, *primes)
            continue
        x, y, z = _lagrange_descent(a, b, *primes)
        assert (y, z) != (0, 0) and x * x == a * y * y + b * z * z, (a, b)
        solved += 1
    assert solved == 139


@pytest.mark.parametrize("entries", [(1000003, 5, -1000033),
                                     (1000039, -2000078, 1000033),
                                     (5000185, 7000259, -7000231),
                                     (1000039, 7000021, -1000037)])
def test_ternary_zero_factors_no_product_of_entries(monkeypatch, entries):
    # the conic is scaled to (-s0 s2, -s1 s2): their classes come from
    # gcds and their primes from the entries', so neither product, each
    # past trial division here, is factored
    factored = []
    factor = qarith.factor
    monkeypatch.setattr(qarith, "factor",
                        lambda n: factored.append(n) or factor(n))
    q = diagonal(*entries)
    v = isotropic_vector(q)
    assert q(v) == 0 and gcd(*(int(x) for x in v)) == 1
    s0, s1, s2 = q.square_classes
    assert factored and not {abs(s0 * s2), abs(s1 * s2)} & set(factored)


def test_isotropy_reads_its_places_off_the_entries():
    # the class of 1000003/1000033 is 1000036000099, a cofactor past trial
    # division; the places come from the entries, each factored on its own
    r = Fraction(1000003, 1000033)
    assert isotropic_vector(diagonal(r, 1, -1)) == (0, 1, 1)
    assert not is_isotropic(diagonal(r, 5, -7))


def _factoring_of(monkeypatch, number: int) -> list[int]:
    # qarith.factor wrapped wherever the isotropy path and the Brauer
    # symbols read it; records each call on `number`
    seen = []
    factor = qarith.factor
    for module in (qarith, cohomology):
        monkeypatch.setattr(module, "factor", lambda n: (
            seen.append(n) if n == number else None) or factor(n))
    return seen


BIG = Fraction(1000003, 1000033)   # its class 1000036000099 is past factor


@pytest.mark.parametrize("entries", [(BIG, -30, 5), (BIG, 5, -7, 11)])
def test_isotropic_vectors_read_places_off_the_entries(monkeypatch, entries):
    # the descent and the splitting walk take the primes of every class
    # from the entries' places, and c's from factor(|c|)
    seen = _factoring_of(monkeypatch, 1000036000099)
    q = diagonal(*entries)
    v = isotropic_vector(q)
    assert q(v) == 0 and any(v) and seen == []


def test_represented_values_read_places_off_the_entries(monkeypatch):
    seen = _factoring_of(monkeypatch, 1000036000099)
    q = diagonal(BIG, 1, 1)
    assert q(represent_value(q, 6)) == 6 and seen == []


def test_brauer_class_reads_places_off_the_slots(monkeypatch):
    # ramified_places reads its places off a and b, not off their classes
    seen = _factoring_of(monkeypatch, 1000036000099)
    assert algebra(BIG, -30).brauer.ramified == {2, 1000033}
    assert seen == []


@given(st.integers(min_value=0, max_value=2**32))
@settings(max_examples=400, deadline=None)
def test_isotropic_search_ignores_places_that_divide_no_entry(seed):
    # the helpers filter the places they are given, so a caller may pass
    # the entries' places down: primes that divide no entry change nothing
    rng = Random(seed)
    q = diagonal()
    while not is_isotropic(q):
        q = diagonal(*(rng.choice((1, -1)) * rng.randint(1, 60)
                       for _ in range(rng.randint(3, 6))))
    s, places = list(q.square_classes), q.places
    more = sorted({*places[:-1], 61, 67, 1000003}) + [REAL]
    assert quadform._int_isotropic(s, more) == quadform._int_isotropic(
        s, places), q


@given(entries_strategy)
@settings(max_examples=40)
def test_brute_force_zeros_confirm_isotropy(q):
    # positive-side oracle: any small box zero must be seen by the decision
    box = range(-4, 5)
    if q.dim > 3:
        return
    found = False
    import itertools
    for v in itertools.product(box, repeat=q.dim):
        if any(v) and q(v) == 0:
            found = True
            break
    if found:
        assert is_isotropic(q)


def test_invariant_values():
    q = diagonal(1, -2, 3, -6)
    assert e1(q) == 1
    assert signature(q) == 0
    assert clifford_class(q).ramified == frozenset({2, 3})
    assert q.invariants.det == 1
    assert e1(diagonal(1, 1)) == -1
    assert e1(hyperbolic(3)) == 1


def test_clifford_frozen_points():
    # C0 of the sum of three squares is the Hamilton quaternions
    assert clifford_class(diagonal(1, 1, 1)).ramified == frozenset({REAL, 2})
    # and <1,1,-1> is Witt equivalent to <-1>, whose even Clifford is Q
    assert clifford_class(diagonal(1, 1, -1)).is_zero()
    assert clifford_class(diagonal(1, 1, 1, -1)).is_zero()
    assert clifford_class(diagonal(1, 1, 1, 1)).ramified == frozenset({REAL, 2})
    assert clifford_class(pfister(-1, -1, -1)).is_zero()
    # C(<d, d, -d>) = (d, d) + (-1, d) = 0: scaling a ternary form by a
    # square class leaves its Clifford class alone
    for d in (-1, 2, -2, 3, -5, 6, 7, -30, 1009, -2 * 3 * 5 * 7 * 11):
        assert clifford_class(diagonal(d, d, -d)).is_zero(), d
        assert clifford_class(scale(d, diagonal(1, 1, 1))) == clifford_class(
            diagonal(1, 1, 1)), d


@given(entries_strategy)
@settings(max_examples=120)
def test_clifford_is_witt_invariant(q):
    assert clifford_class(direct_sum(q, hyperbolic(1))) == clifford_class(q)


@given(st.integers(min_value=-20, max_value=20).filter(lambda n: n not in (0,)),
       st.integers(min_value=-20, max_value=20).filter(lambda n: n not in (0,)))
@settings(max_examples=50)
def test_e2_of_pfister_is_the_symbol(a, b):
    assert e2(pfister(a, b)) == brauer_from_symbol(a, b)


@given(entries_strategy.filter(lambda q: q.dim % 2 == 0),
       st.integers(min_value=-15, max_value=15).filter(lambda n: n != 0))
@settings(max_examples=60)
def test_e2_scaling_relation(q, lam):
    assert e2(scale(lam, q)) == e2(q) + brauer_from_symbol(lam, e1(q))


def test_e3_values():
    assert e3(pfister(-1, -1, -1)) == H3Class(1)
    assert e3(hyperbolic(4)) == H3Class(0)
    assert e3(tensor(pfister(-1, -1), diagonal(1, -2))) == H3Class(0)
    with pytest.raises(DomainError):
        e3(diagonal(1, 1))


def _represents(q: QuadForm, c) -> bool:
    # q represents c != 0 exactly when q + <-c> is isotropic
    return is_isotropic(direct_sum(q, diagonal(-c)))


def test_representation_witnesses():
    q = diagonal(1, 1, 1)
    assert _represents(q, 6)
    v = represent_value(q, 6)
    assert q(v) == 6
    assert not _represents(q, 7)
    assert not _represents(q, -1)
    with pytest.raises(DomainError):
        represent_value(q, 7)
    for n in range(1, 40):
        assert _represents(q, n) == _three_square_oracle(n)


@given(entries_strategy, st.lists(st.integers(min_value=-5, max_value=5),
                                  min_size=1, max_size=7))
@settings(max_examples=60)
def test_computed_values_are_represented(q, v):
    if len(v) != q.dim or not any(v):
        return
    c = q(v)
    if c == 0:
        return
    w = represent_value(q, c)
    assert q(w) == c


def test_witt_decompose_long_definite_form():
    # one unit is peeled per dimension; doing that by recursion overflowed
    # the interpreter stack well before dim 1000
    for sign in (1, -1):
        q = diagonal(*[sign] * 1000)
        w = witt_decompose(q)
        assert w.index == 0 and w.kernel.dim == 1000
        assert isometric(w.kernel, q)


def test_witt_decompose_frozen():
    w = witt_decompose(diagonal(1, 1, -2))
    assert w.index == 1
    assert w.kernel.dim == 1
    assert e1(w.kernel) == 2
    w2 = witt_decompose(hyperbolic(3))
    assert w2.index == 3 and w2.kernel.dim == 0
    w3 = witt_decompose(diagonal(2, 3, 5))
    assert w3.index == 0 and w3.kernel.dim == 3
    assert witt_index(diagonal(1, 1, -2)) == 1
    assert witt_index(hyperbolic(3)) == 3
    assert witt_index(diagonal(2, 3, 5)) == 0


def test_witt_decompose_refuses_a_wrong_kernel(monkeypatch):
    # the kernel is built, not searched, and checked once before it
    # escapes: <1, 2, 15> has the e1 and signature of <2, 3, 5> but
    # another Clifford class, and <1, 1, -1> is isotropic
    for wrong in (diagonal(1, 2, 15), diagonal(1, 1, -1)):
        monkeypatch.setattr("wittforge.quadform._anisotropic_rep",
                            lambda inv, at, k=wrong: (k, at))
        with pytest.raises(AssertionError):
            witt_decompose(diagonal(2, 3, 5))


# a Clifford class ramified at 14 places, which no second slot of height
# up to 10^4 represents
FOURTEEN_PLACES = [
    -69, -164, 178, -197, -22, -58, 40, -26, -82, 49, 85, -163, 17, -177,
    -2, 87, -112, 52, -70, -33, -160, 137, 106, 161, -110, 128, -24, -195,
    2, -3, -122, 42, 36, -97, 87, 162, 21, 175, -136, -120, -197, -121, 104,
    93, 199, 18, -171, 79, -89, 999983]


def test_witt_decompose_answers_on_fourteen_places():
    q = diagonal(*FOURTEEN_PLACES)
    assert len(q.invariants.clifford.ramified) == 14
    w = witt_decompose(q)
    assert (w.kernel.dim, w.index) == (4, 23)
    assert witt_equivalent(w.kernel, q) and not is_isotropic(w.kernel)


# forms whose Witt kernels once took a product of their primes to factor,
# past FACTOR_BOUND squared, or a walk over every prime up to FACTOR_BOUND
LARGE_PRIME_FORMS = [(1000003, 1000033), (1000003, 1000033, 1),
                     (1000003, 1000033, 1, 1), (-1000003, 1000033, 5),
                     (1000003, 1000003)]


def _factor_calls(monkeypatch) -> list[int]:
    # qarith.factor wrapped in every module that binds it: the argument of
    # each call, in order, cache hits included
    seen = []
    original = qarith.factor
    for module in list(sys.modules.values()):
        if getattr(module, "factor", None) is original:
            monkeypatch.setattr(module, "factor",
                                lambda n: seen.append(n) or original(n))
    return seen


@pytest.mark.parametrize("entries", LARGE_PRIME_FORMS)
def test_witt_decompose_factors_nothing_it_built(monkeypatch, entries):
    # factor sees only the entries and the places the symbol solve proves;
    # the kernel's record is the one its check read
    seen = _factor_calls(monkeypatch)
    q = diagonal(*entries)
    start = time.perf_counter()
    w = witt_decompose(q)
    assert witt_equivalent(w.kernel, q)
    assert w.kernel.dim == w.kernel.invariants.kernel_dim
    assert time.perf_counter() - start < 1
    assert w.kernel.dim + 2 * w.index == q.dim
    assert set(seen) <= {abs(x) for x in entries} | set(q.places), seen


def test_one_factorization_per_number(monkeypatch):
    # a number's class and its primes come from one factor call, and the
    # primes travel with it: a form's classes and places, a symbol's two
    # slots, and each splitting value the walk tries
    seen = _factor_calls(monkeypatch)
    diagonal(6, 10, 15, Fraction(7, 9)).invariants
    assert Counter(seen) == {6: 1, 10: 1, 15: 1, 7: 1, 9: 1}
    seen.clear()
    ramified_places(12, Fraction(18, 5))
    assert Counter(seen) == {12: 1, 18: 1, 5: 1}
    # the factor calls from asking for each candidate c to asking for the
    # next: the walk's own, as the entries and the descent on the last c
    # fall outside them
    walk, windows = quadform._signed_squarefree_by_height, []

    def recorded(limit):
        start = len(seen)
        for c, primes in walk(limit):
            yield c, primes
            windows.append((c, seen[start:]))
            start = len(seen)
    monkeypatch.setattr(quadform, "_signed_squarefree_by_height", recorded)
    q = diagonal(22, 110, -133, 396)
    assert q(isotropic_vector(q)) == 0
    assert len(windows) == 2233 - 1
    per_height = Counter()
    for c, calls in windows:
        per_height[abs(c)] += calls.count(abs(c))
    assert set(per_height.values()) == {1}


def _sweep_forms():
    # seeded diagonals up to dim 50, entries up to 9, 50 or 200
    rng = Random(7)
    for k in range(1500):
        dim = rng.randint(1, 50)
        bound = rng.choice((9, 50, 200))
        entries = [rng.choice([-1, 1]) * rng.randint(1, bound)
                   for _ in range(dim)]
        yield [abs(x) for x in entries] if k % 7 == 0 else entries


def test_witt_decompose_sweep_raises_no_bound():
    # 55 of these forms once ran the second-slot search past its height
    # cap, and now every kernel is solved for
    exceeded = 0
    start = time.perf_counter()
    for entries in _sweep_forms():
        try:
            witt_decompose(diagonal(*entries))
        except BoundExceeded:
            exceeded += 1
    assert exceeded == 0
    assert time.perf_counter() - start < 10


def _trial_class(n: int) -> tuple[int, set[int]]:
    # the signed squarefree class of the int n and its primes, by trial
    # division
    m, core, primes, p = abs(n), 1, set(), 2
    while p * p <= m:
        e = 0
        while m % p == 0:
            m, e = m // p, e + 1
        if e % 2:
            core, primes = core * p, primes | {p}
        p += 1 if p == 2 else 2
    if m > 1:
        core, primes = core * m, primes | {m}
    return (core if n > 0 else -core), primes


def _oracle_isometric(xs: list[int], ys: list[int]) -> bool:
    # dim, det class, signature and the Hasse bit at each place, summed
    # over the n - 1 symbols (a_1 ... a_{j-1}, a_j) by hilbert_symbol; at
    # an odd prime dividing neither slot a symbol is 1
    classes = [[_trial_class(x) for x in zs] for zs in (xs, ys)]
    places = {2, REAL}.union(*(ps for cs in classes for _, ps in cs))

    def invariants(cs):
        prefix, hasse = cs[0][0], dict.fromkeys(places, 1)
        for x, _ in cs[1:]:
            for v in places:
                if v in (2, REAL) or prefix % v == 0 or x % v == 0:
                    hasse[v] *= hilbert_symbol(prefix, x, v)
            g = gcd(prefix, x)
            prefix = (prefix // g) * (x // g)
        return len(cs), prefix, sum(x > 0 for x, _ in cs), hasse

    return invariants(classes[0]) == invariants(classes[1])


def test_sweep_kernels_match_an_independent_oracle():
    # kernel + index H is isometric to q for every sweep form, checked by
    # classes the test factors itself
    for entries in _sweep_forms():
        w = witt_decompose(diagonal(*entries))
        rebuilt = [int(x) for x in w.kernel.entries] + [1, -1] * w.index
        assert _oracle_isometric(rebuilt, entries), entries


def _isometric_pairs(kind):
    # 750 seeded pairs of isometric diagonals of dims 2-9, entries up to
    # 60: one entry rescaled by p^2 for a prime p <= 1009, or one binary
    # rewrite <a, b> -> <v, abv> for a value v = ax^2 + by^2 of <a, b>;
    # the rewritten side is also shuffled
    primes = [p for p in range(2, 1010)
              if all(p % d for d in range(2, isqrt(p) + 1))]
    rng = Random(f"{kind}-31")
    for _ in range(750):
        dim = rng.randint(2, 9)
        entries = [rng.choice([-1, 1]) * rng.randint(1, 60)
                   for _ in range(dim)]
        other = entries[:]
        i, j = rng.sample(range(dim), 2)
        if kind == "square":
            other[i] *= rng.choice(primes) ** 2
        else:
            a, b = entries[i], entries[j]
            v = 0
            while v == 0:
                v = a * rng.randint(-9, 9) ** 2 + b * rng.randint(-9, 9) ** 2
            other[i], other[j] = v, a * b * v
        rng.shuffle(other)
        yield entries, other


@pytest.mark.parametrize("kind", ["square", "binary"])
def test_witt_kernels_are_a_normal_form(kind):
    # the kernel is built from the isometry class alone, so isometric
    # inputs give the same kernel, entry for entry, and the same index
    for entries, other in _isometric_pairs(kind):
        w, w2 = (witt_decompose(diagonal(*xs)) for xs in (entries, other))
        assert w == w2, (entries, other)
        assert [str(x) for x in w.kernel.entries] == \
            [str(x) for x in w2.kernel.entries]


@pytest.mark.parametrize("n", [*range(4, 13), 400])
@pytest.mark.parametrize("s", [1, -1])
def test_definite_kernels_peel_in_one_step(monkeypatch, s, n):
    # the units split off a definite kernel are peeled in closed form, by
    # at most 4 symbols read at the record's places, whatever the dim
    # (dims 4-12 cover every count of units mod 4, so the (x, x) term
    # shows for negative definite kernels), and so is the value the
    # ternary left represents: two peels, and peeling factors nothing
    peeled, factored = [], []
    peel, factor = quadform._peel, qarith.factor

    def watched(*args):
        with monkeypatch.context() as m:
            m.setattr(qarith, "factor",
                      lambda k: factored.append(k) or factor(k))
            peeled.append(args)
            return peel(*args)

    monkeypatch.setattr(quadform, "_peel", watched)
    w = witt_decompose(diagonal(*[s] * n))
    assert (w.kernel.dim, w.index, signature(w.kernel)) == (n, 0, s * n)
    assert [m for *_, m in peeled] == [n - 3, 1] and factored == []


@given(entries_strategy)
@settings(max_examples=50, deadline=None)
def test_witt_decompose_roundtrip(q):
    w = witt_decompose(q)
    assert not is_isotropic(w.kernel)
    assert witt_index(q) == w.index
    assert w.kernel.dim + 2 * w.index == q.dim
    rebuilt = direct_sum(w.kernel, hyperbolic(w.index)) if w.index else w.kernel
    assert isometric(rebuilt, q)


def test_isometric_frozen():
    assert isometric(diagonal(1, 1), diagonal(2, 2))
    assert isometric(diagonal(1, -1), diagonal(2, -2))
    assert not isometric(diagonal(1, 1), diagonal(1, 2))
    assert not isometric(diagonal(1, 1), diagonal(-1, -1))
    assert isometric(diagonal(1, Fraction(1, 4)), diagonal(1, 1))


@given(entries_strategy)
@settings(max_examples=40)
def test_isometry_respects_permutation_and_squares(q):
    rev = diagonal(*reversed(q.entries))
    assert isometric(q, rev)
    scaled = diagonal(*(e * 9 for e in q.entries))
    assert isometric(q, scaled)


@given(entries_strategy)
@settings(max_examples=40)
def test_witt_equivalence_mod_hyperbolic(q):
    assert witt_equivalent(q, direct_sum(q, hyperbolic(2)))
    assert witt_equivalent(direct_sum(q, neg(q)), hyperbolic(q.dim))


fraction_forms = st.lists(
    st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(
        lambda f: f != 0),
    max_size=9,
).map(lambda xs: diagonal(*xs))


@st.composite
def witt_pairs(draw):
    # random pairs are rarely Witt equivalent, so half the time q2 becomes
    # q1 + q2 + (-c) q2, which is equivalent to q1 exactly when <1, -c> q2
    # is hyperbolic: always for c = 1, 4, sometimes for the others
    q1, q2 = draw(fraction_forms), draw(fraction_forms)
    if draw(st.booleans()):
        c = draw(st.sampled_from([1, 4, -1, 2, 3, Fraction(5, 9)]))
        q2 = direct_sum(q1, q2, scale(-c, q2))
    return q1, q2


@given(witt_pairs())
@settings(max_examples=150, deadline=None)
def test_witt_equivalent_reads_the_two_records(pair):
    q1, q2 = pair
    # the old definition, q1 + (-q2) hyperbolic, builds a third form; the
    # records of q1 and q2 are all witt_equivalent reads
    expected = direct_sum(q1, neg(q2)).invariants.kernel_dim == 0
    with pytest.MonkeyPatch.context() as mp:
        builds, _ = _count_record_builds(mp)
        assert witt_equivalent(q1, q2) == expected
    assert builds == [q1.square_classes, q2.square_classes]
    assert witt_equivalent(q1, direct_sum(q2, hyperbolic(1))) == expected


def test_hyperbolic_over_extension_values():
    assert is_hyperbolic_over(diagonal(1, 1), -1)
    assert is_hyperbolic_over(diagonal(1, -2, 3, -6), 2)
    big = direct_sum(pfister(-1, -1, -1), pfister(2, 17))
    assert not is_hyperbolic_over(big, 2)
    assert not is_hyperbolic_over(diagonal(1, 1), 2)
    assert is_hyperbolic_over(hyperbolic(1), 7)
    assert is_hyperbolic_over(hyperbolic(1), 2)
    with pytest.raises(DomainError):
        is_hyperbolic_over(diagonal(1, 1), 4)
    with pytest.raises(DomainError):
        is_hyperbolic_over(diagonal(1, 1, 1), 2)


@given(st.lists(st.integers(min_value=-12, max_value=12).filter(lambda n: n != 0),
                min_size=1, max_size=3),
       st.integers(min_value=-15, max_value=15).filter(
           lambda n: squarefree_part(n) != 1 if n != 0 else False))
@settings(max_examples=50, deadline=None)
def test_binary_multiples_are_hyperbolic_over(slots, d):
    q = tensor(diagonal(*slots), diagonal(1, -d))
    assert is_hyperbolic_over(q, d)


def test_is_hyperbolic():
    # hyperbolic exactly when the anisotropic kernel is 0
    assert hyperbolic(2).invariants.kernel_dim == 0
    assert diagonal(3, -3, 5, -5).invariants.kernel_dim == 0
    # <1,1> = <2,2> (2 is a sum of two squares), so this one IS hyperbolic
    assert diagonal(1, 1, -2, -2).invariants.kernel_dim == 0
    # but <1,1> and <3,3> differ in their Hasse class at 2 and 3
    assert diagonal(1, 1, -3, -3).invariants.kernel_dim != 0


def test_no_place_prime_is_proved_again(monkeypatch):
    # primes from factor, and the places of the package's Brauer classes,
    # skip the primality test: the square roots mod p under
    # isotropic_vector, the local squares of second_slot under
    # witt_decompose and those of is_hyperbolic_over
    callers = []
    prime = qarith.is_prime
    monkeypatch.setattr(qarith, "is_prime", lambda n: callers.append(
        sys._getframe(1).f_code.co_name) or prime(n))
    rng = Random(3)
    found = 0
    while found < 40:
        q = diagonal(*(rng.choice((1, -1)) * rng.randint(1, 300)
                       for _ in range(rng.randint(3, 7))))
        if is_isotropic(q):
            isotropic_vector(q)
            found += 1
    # a splitting-value walk of 3,732 candidates, whose Legendre symbols
    # take their primes from factor
    isotropic_vector(diagonal(-14, -15, -210, 91))
    rng = Random(5)
    for _ in range(40):
        witt_decompose(diagonal(*(rng.choice((1, -1)) * rng.randint(1, 2000)
                                  for _ in range(rng.randint(1, 12)))))
    for entries, d in (((1, -2, 3, -6), 2), ((3, 5, 7, 105), -1),
                       ((2, 3, -5, -7), 13)):
        is_hyperbolic_over(diagonal(*entries), d)
    assert set(callers) <= {"factor"}


def test_json_roundtrip():
    q = diagonal(Fraction(3, 4), -2, 5)
    assert from_json(to_json(q)) == q
    assert to_json(q)["entries"] == ["3/4", "-2", "5"]
    with pytest.raises(DomainError):
        from_json({"entries": ["0"]})
    with pytest.raises(DomainError):
        from_json({"entries": "nope"})
    with pytest.raises(DomainError):
        from_json({"entries": ["x"]})


# --- Hasse class in n - 1 symbols, cached per form ------------------------

hasse_forms = st.lists(
    st.one_of(st.sampled_from([1, -1, 2, -3, 6, Fraction(-5, 4)]),
              st.fractions(min_value=-60, max_value=60, max_denominator=12)
              .filter(lambda f: f != 0)),
    min_size=0, max_size=30,
).map(lambda xs: diagonal(*xs))

# one prime near 10^6 per entry, so products of several entries are past
# the trial division budget while each entry is within it
LARGE_PRIMES = [999917, 999931, 999953, 999979, 999983,
                1000003, 1000033, 1000037, 1000039]
large_prime_entries = st.one_of(
    st.sampled_from([1, -1, 2, -3, Fraction(-5, 4)]),
    st.builds(lambda p, c: p * c, st.sampled_from(LARGE_PRIMES),
              st.sampled_from([1, -1, 3, -2, Fraction(1, 4),
                               Fraction(-7, 9)])))
large_prime_forms = st.lists(large_prime_entries, min_size=0, max_size=30,
                             ).map(lambda xs: diagonal(*xs))


def _pairwise_hasse(q: QuadForm):
    """The textbook definition, sum over all pairs i < j of (a_i, a_j)."""
    total = ZERO
    for a, b in combinations(q.entries, 2):
        total = total + brauer_from_symbol(a, b)
    return total


def _pairwise_local_hasse(q: QuadForm, v) -> int:
    eps = 1
    for a, b in combinations(q.entries, 2):
        eps *= hilbert_symbol(a, b, v)
    return eps


def _local_isotropic(q: QuadForm) -> bool:
    """Hasse-Minkowski as the textbook states it, the reference for
    is_isotropic: a binary is isotropic iff -det is a square, a ternary iff
    its pairwise Hasse invariant is (-1, -det) at every place, a quaternary
    iff it is (-1, -1) wherever det is a local square, a longer form iff it
    is indefinite.  (-1, -det) is expanded entry by entry and det is kept
    as a square class, so no product past the trial division budget is
    factored."""
    n = q.dim
    if n <= 1:
        return False
    d = square_class_product(*q.entries)
    if n == 2:
        return d == -1
    if n >= 5:
        return min(q.entries) < 0 < max(q.entries)
    for v in _support_places(q.square_classes):
        eps = _pairwise_local_hasse(q, v)
        minus_one = hilbert_symbol(-1, -1, v)
        if n == 3:
            minus_det = minus_one
            for a in q.entries:
                minus_det *= hilbert_symbol(-1, a, v)
            if eps != minus_det:
                return False
        elif _local_square_core(d, v) and eps != minus_one:
            return False
    return True


@given(st.one_of(hasse_forms, large_prime_forms))
@settings(max_examples=120, deadline=None)
def test_isotropy_matches_the_local_conditions(q):
    # every leading subform up to dim 5, so dims 3 and 4 are always met
    for k in range(min(q.dim, 5) + 1):
        head = QuadForm(q.entries[:k])
        assert is_isotropic(head) == _local_isotropic(head), head
    assert is_isotropic(q) == _local_isotropic(q), q


@given(st.one_of(hasse_forms, large_prime_forms))
@settings(max_examples=120, deadline=None)
def test_hasse_class_matches_pairwise_definition(q):
    cls = q.invariants.hasse
    assert cls == _pairwise_hasse(q), q
    for v in _support_places(q.square_classes) + [11]:
        eps = _local_hasse(_hasse_symbols(q.square_classes)[0], v)
        assert eps == _pairwise_local_hasse(q, v), (q, v)
        assert (eps == -1) == cls.is_ramified_at(v), (q, v)


def _textbook_clifford(q: QuadForm):
    """Pairwise Hasse class plus the correction (-1, -1), (-1, -det) or
    (-1, det), the det slot split entry by entry so nothing past the
    trial division budget is factored."""
    n = q.dim % 8
    slots = ([-1, *q.entries] if n in (3, 4) else [-1] if n in (5, 6)
             else list(q.entries) if n in (7, 0) else [])
    return _pairwise_hasse(q) + sum((brauer_from_symbol(-1, x)
                                     for x in slots), ZERO)


@given(st.one_of(hasse_forms, large_prime_forms))
@settings(max_examples=120, deadline=None)
def test_clifford_class_matches_textbook_definition(q):
    assert clifford_class(q) == _textbook_clifford(q), q


def test_isotropy_matches_the_independent_local_oracle():
    # seeded squarefree diagonals of dims 3 and 4, entries |x| <= 30:
    # `oracles` decides isotropy place by place with no code from the
    # package.  A form is isotropic iff it is at R, 2 and each odd prime
    # dividing an entry, and at each of those places it is anisotropic iff
    # its local kernel is all of it: for dim 3 where the Clifford class
    # ramifies, for dim 4 where it ramifies and e1 is a local square
    rng = Random(29)
    squarefree = [n for n in range(-30, 31)
                  if n and oracles.is_squarefree(n)]
    outcomes = Counter()
    for _ in range(600):
        entries = [rng.choice(squarefree) for _ in range(rng.randint(3, 4))]
        q = diagonal(*entries)
        isotropic = oracles.locally_isotropic(entries)
        assert is_isotropic(q) == isotropic, entries
        outcomes[q.dim, isotropic] += 1
        odd = {p for x in entries for p in oracles.prime_divisors(x)} - {2}
        ramified = clifford_class(q).ramified
        for v in (REAL, 2, *odd):
            assert (not oracles.isotropic_at(entries, v)) == (
                v in ramified and (q.dim == 3 or is_local_square(e1(q), v))
            ), (entries, v)
        # the oracle's premise: unimodular of dim >= 3 at every other p
        assert all(oracles.isotropic_at(entries, p)
                   for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
                   if p not in odd), entries
    # both answers, in both dimensions, are among the cases compared
    assert min(outcomes.values()) > 50 and len(outcomes) == 4


@given(st.lists(large_prime_entries, min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_ternary_isotropy_matches_its_quaternion_algebra(entries):
    # <a, b, c> is isotropic iff (-ac, -bc) splits; expanded bilinearly
    a, b, c = entries
    split = sum((brauer_from_symbol(x, y)
                 for x in (-1, a, c) for y in (-1, b, c)), ZERO)
    assert is_isotropic(diagonal(a, b, c)) == split.is_zero(), entries


@given(hasse_forms)
@settings(max_examples=60, deadline=None)
def test_equal_forms_carry_equal_cached_invariants(q):
    # each form builds its invariant record once, and every reader reuses it
    q, twin = QuadForm(q.entries), QuadForm(tuple(q.entries))
    with mock.patch.object(quadform, "_invariants",
                           wraps=quadform._invariants) as build:
        invariants = (e1(q), q.invariants.hasse, clifford_class(q),
                      signature(q), q.invariants.det, witt_index(q),
                      q.invariants.kernel_dim)
        assert build.call_count == 1 and q.invariants is q.invariants
        assert twin == q and hash(twin) == hash(q)
        assert (e1(twin), twin.invariants.hasse, clifford_class(twin),
                signature(twin), twin.invariants.det, witt_index(twin),
                twin.invariants.kernel_dim) == invariants
        assert twin.invariants == q.invariants and isometric(q, twin)
        assert build.call_count == 2
    assert twin.square_classes == q.square_classes == tuple(
        squarefree_part(e) for e in q.entries)
    if q.dim:
        assert q.invariants.det == square_class_product(*q.entries)
    assert isometric(q, twin)


def test_represent_value_runs_one_isotropy_test(monkeypatch):
    calls = []
    isotropic = quadform.is_isotropic
    monkeypatch.setattr(quadform, "is_isotropic",
                        lambda q: calls.append(q) or isotropic(q))
    q = diagonal(1, 1, 1)
    assert q(represent_value(q, 6)) == 6
    assert len(calls) == 1
    with pytest.raises(DomainError, match="form does not represent 7"):
        represent_value(q, 7)
    assert len(calls) == 2


def _count_record_builds(monkeypatch) -> tuple[list, list]:
    # the square classes of every record built, and every place at which a
    # local Hasse invariant is taken
    builds, places = [], []
    build, local_hasse = quadform._invariants, quadform._local_hasse
    monkeypatch.setattr(quadform, "_invariants",
                        lambda s, at: builds.append(s) or build(s, at))
    monkeypatch.setattr(quadform, "_local_hasse",
                        lambda s, v: places.append(v) or local_hasse(s, v))
    return builds, places


def test_qf_invariants_builds_one_record(tmp_path, capsys, monkeypatch):
    # e1, e2, signature, the Witt index and e3 of a 12-dim form in I^3
    q = direct_sum(scale(-3, pfister(-1, -2, -5)), hyperbolic(2))
    path = tmp_path / "form.json"
    path.write_text(json.dumps(to_json(q)))
    builds, places = _count_record_builds(monkeypatch)
    assert main(["qf", "invariants", str(path)]) == 0
    outputs = json.loads(capsys.readouterr().out)["outputs"]
    assert outputs["e2"] == [] and outputs["e3"] == 1
    assert len(builds) == 1
    assert len(places) == len(_support_places(builds[0]))


def test_witt_decompose_builds_two_records(monkeypatch):
    # one record for q and one for its kernel; every local Hasse invariant
    # is taken inside a record build
    builds, places = _count_record_builds(monkeypatch)
    w = witt_decompose(diagonal(1, 2, 3, 5, 7))
    assert w.index == 0 and w.kernel.dim == 5
    assert len(builds) == 2
    assert len(places) == sum(len(_support_places(s)) for s in builds)


@pytest.mark.parametrize("entries", [(3, 5, -7), (1, -1), (1, 1, -2),
                                     (2, -3), (1, 1, 1, -7), (1, 2, -3, -6)])
def test_isotropy_below_dim_5_reads_one_record(monkeypatch, entries):
    # past the sign shortcuts, isotropy builds the record of the square
    # classes once, reads each support place once, and its kernel_dim
    # decides
    builds, places = _count_record_builds(monkeypatch)
    q = diagonal(*entries)
    isotropic = is_isotropic(q)
    assert builds == [q.square_classes]
    assert places == _support_places(q.square_classes)
    assert isotropic == (q.invariants.kernel_dim < q.dim)


def test_record_places_stay_out_of_equality():
    # <5, 5> and <1, 1> are isometric, with equal records, but the record
    # of <5, 5> was built over the place 5 as well; the places stay on
    # the form
    q, r = diagonal(5, 5), diagonal(1, 1)
    assert q.invariants == r.invariants and isometric(q, r)
    assert hash(q.invariants) == hash(r.invariants)
    assert q.places == [2, 5, REAL] and r.places == [2, REAL]
    assert not hasattr(q.invariants, "places")


# --- entry storage -----------------------------------------------------------

def test_entry_storage_never_shows():
    # integral entries are stored as ints and proper fractions as
    # Fractions, whatever type they came in; equality, hashing and the
    # serialization cannot tell the two apart
    q, r = diagonal(3, -5), diagonal(Fraction(6, 2), -5)
    assert q == r and hash(q) == hash(r)
    assert json.dumps(to_json(q)) == json.dumps(to_json(r))
    assert to_json(r)["entries"] == ["3", "-5"]
    assert [type(e) for e in r.entries] == [int, int]
    assert from_json({"entries": ["-12/4", "7/2"]}).entries == (-3,
                                                               Fraction(7, 2))
    assert [type(e) for e in diagonal(Fraction(7, 2), 4).entries] == [
        Fraction, int]
    for bad in (1.5, 2.0, True, False, "3", None):
        with pytest.raises(DomainError):
            diagonal(1, bad)
    with pytest.raises(DomainError):
        diagonal(Fraction(0, 5))
    # scaling by a proper fraction keeps the proper fraction, and an
    # integral product comes back an int
    assert scale(Fraction(1, 2), diagonal(3)).entries == (Fraction(3, 2),)
    assert type(scale(Fraction(1, 2), diagonal(4)).entries[0]) is int
    assert [type(e) for e in tensor(pfister(2, 3), diagonal(5, -7)).entries
            ] == [int] * 8


@pytest.mark.parametrize("entries, c", [
    ((1, -1), 3),                  # a zero of q itself: the slide
    ((1, -1), Fraction(3, 7)),
    ((2, -2, 5), -1),
    ((1, 1), 2),                   # anisotropic q: the division
    ((Fraction(1, 3), 2, -5), Fraction(7, 2)),
    ((3, 5, -7), 11),
])
def test_represent_value_returns_fractions(entries, c):
    q = diagonal(*entries)
    v = represent_value(q, c)
    assert all(type(x) is Fraction for x in v)
    assert q(v) == c


def test_hyperbolic_wants_a_nonnegative_int():
    assert hyperbolic(2) == diagonal(1, -1, 1, -1)
    assert hyperbolic(0).dim == 0
    for bad in (-1, -3, 1.0, 2.5, Fraction(2), "2", True, None):
        with pytest.raises(DomainError):
            hyperbolic(bad)
