"""Brauer classes in ramification coordinates and the H^3 cup product."""

import time
from math import prod
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import cohomology
from wittforge.cohomology import (
    H3Class,
    ZERO,
    BrauerClass,
    brauer_from_symbol,
    cup_h3,
    nonsquare_slot,
    second_slot,
)
from wittforge.errors import DomainError
from wittforge.qarith import (REAL, check_place, hilbert_symbol,
                              is_local_square, ramified_places,
                              squarefree_part)
from wittforge.quadform import clifford_class, diagonal, e1

from slots import quaternion_symbol

nonzero = st.fractions(
    min_value=Fraction(-200), max_value=Fraction(200), max_denominator=20
).filter(lambda f: f != 0)


def test_brauer_class_rejects_odd_sets():
    with pytest.raises(DomainError):
        BrauerClass(frozenset({2}))
    with pytest.raises(DomainError):
        BrauerClass(frozenset({REAL, 2, 5}))


def test_package_built_classes_skip_the_place_check(monkeypatch):
    # classes built from factored places or their sums are not re-proven
    # prime; only a place asked about from outside is checked
    seen = []

    def counting(v):
        seen.append(v)
        return check_place(v)

    monkeypatch.setattr(cohomology, "check_place", counting)
    inv = diagonal(1000003, 1000033, 1).invariants
    a = brauer_from_symbol(-1, -1)
    b = brauer_from_symbol(1000003, 1000033)
    total = a + b + inv.hasse + inv.clifford
    assert seen == []
    assert total.ramified == frozenset({2, 1000033})
    assert a.is_ramified_at(REAL)
    assert seen == [REAL]
    with pytest.raises(DomainError):
        total.is_ramified_at(1000033 * 3)


def test_brauer_addition_is_symmetric_difference():
    a = brauer_from_symbol(-1, -1)   # {real, 2}
    b = brauer_from_symbol(2, 5)     # {2, 5}
    assert (a + b).ramified == frozenset({REAL, 5})
    assert (a + a).is_zero()
    assert sum([a, b, a, b], ZERO).is_zero()


def test_known_symbols():
    assert brauer_from_symbol(-1, -1).ramified == frozenset({REAL, 2})
    assert brauer_from_symbol(2, 5).ramified == frozenset({2, 5})
    assert brauer_from_symbol(1, 1).is_zero()
    assert brauer_from_symbol(-1, 2).is_zero()


def test_sort_key_orders_real_first():
    c = brauer_from_symbol(-1, -5)
    assert c.sort_key()[0] == REAL


@given(nonzero, nonzero, nonzero)
@settings(max_examples=50)
def test_symbol_bilinearity_in_brauer(a, b, c):
    lhs = brauer_from_symbol(a, b * c)
    rhs = brauer_from_symbol(a, b) + brauer_from_symbol(a, c)
    assert lhs == rhs


def test_find_symbol_roundtrip_simple():
    for a, b in [(-1, -1), (2, 5), (3, 5), (-1, 7), (6, -35)]:
        cls = brauer_from_symbol(a, b)
        fa, fb = quaternion_symbol(cls)
        assert ramified_places(fa, fb) == cls.ramified


def test_find_symbol_zero():
    assert quaternion_symbol(ZERO) == (1, 1)


def test_find_symbol_needs_auxiliary_prime():
    # (17, 89) itself splits everywhere, so representing the class ramified
    # exactly at {17, 89} forces a second slot from outside the set.
    cls = BrauerClass(frozenset({17, 89}))
    a, b = quaternion_symbol(cls)
    assert ramified_places(a, b) == frozenset({17, 89})
    assert hilbert_symbol(a, b, 17) == -1
    assert hilbert_symbol(a, b, 89) == -1


def test_nonsquare_slot_is_a_nonsquare_at_every_listed_place():
    assert nonsquare_slot(()) == 1
    for places in ({REAL, 2}, {3, 7}, {REAL, 5, 17, 89}, {2, 3, 5, 7, 11}):
        a = nonsquare_slot(frozenset(places))
        assert not any(is_local_square(a, v) for v in places), places


@given(nonzero, nonzero)
@settings(max_examples=60)
def test_second_slot_solves_symbol_classes(x, y):
    cls = brauer_from_symbol(x, y)
    a, b = quaternion_symbol(cls)
    assert b == squarefree_part(b)
    assert ramified_places(a, b) == cls.ramified


@given(st.lists(st.integers(min_value=-200, max_value=200).filter(bool),
                min_size=1, max_size=12))
@settings(max_examples=60)
def test_second_slot_on_the_discriminant_of_a_form(entries):
    # a second slot exists exactly when a is a local nonsquare at every
    # place of the class
    q = diagonal(*entries)
    a, cls = e1(q), clifford_class(q)
    if any(is_local_square(a, v) for v in cls.ramified):
        with pytest.raises(DomainError):
            second_slot(a, cls, q.places)
    else:
        b, outside = second_slot(a, cls, q.places)
        assert ramified_places(a, b) == cls.ramified
        # b is the product of the places and the outside primes dividing it
        assert all(b % p == 0 for p in outside)
        assert prod({*outside, *(p for p in q.places
                                 if p != REAL and b % p == 0)}) == abs(b)


def test_second_slot_refuses_a_non_place():
    # a class built from outside may name places that are not primes; each
    # is refused at once instead of walking the factor base
    for a, places, bad in ((3, {4, 6}, "4"), (3, {3, 9}, "9"),
                           (-3, {REAL, 1}, "1")):
        start = time.perf_counter()
        with pytest.raises(DomainError, match=f"not a place of Q: {bad}$"):
            second_slot(a, BrauerClass(frozenset(places)), [2, 3, REAL])
        assert time.perf_counter() - start < 0.5


def test_cup_product_values():
    q_ram_real = brauer_from_symbol(-1, -1)
    q_finite = brauer_from_symbol(2, 5)
    assert cup_h3(-1, q_ram_real) == H3Class(1)
    assert cup_h3(1, q_ram_real) == H3Class(0)
    assert cup_h3(-3, q_finite) == H3Class(0)
    assert cup_h3(-1, ZERO) == H3Class(0)
    assert cup_h3(Fraction(-4, 9), q_ram_real) == H3Class(1)
    with pytest.raises(DomainError):
        cup_h3(0, q_ram_real)


def test_cup_product_reads_only_the_sign():
    # a product of three primes past trial division: factoring it would
    # run out of budget, and the cup needs only its sign
    a = -(1000003 * 1000033 * 1000037)
    assert cup_h3(a, brauer_from_symbol(-1, -1)) == H3Class(1)


@given(nonzero, nonzero)
@settings(max_examples=40)
def test_cup_additive_in_second_slot(a, b):
    q1 = brauer_from_symbol(a, b)
    q2 = brauer_from_symbol(-1, -1)
    for x in (-1, 2, -6):
        assert cup_h3(x, q1 + q2) == cup_h3(x, q1) + cup_h3(x, q2)


@given(nonzero, nonzero)
@settings(max_examples=40)
def test_cup_multiplicative_in_first_slot(a, b):
    q = brauer_from_symbol(a, b)
    for x, y in [(-1, -2), (3, -5), (-6, -10)]:
        assert cup_h3(x * y, q) == cup_h3(x, q) + cup_h3(y, q)
