"""Quaternion arithmetic against the Hamilton table and norm identities."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import quat
from wittforge.cohomology import BrauerClass, brauer_from_symbol, second_slot
from wittforge.errors import DomainError
from wittforge.qarith import REAL
from wittforge.quat import (
    Quat,
    algebra,
    anticommutant,
    common_value_witness,
    elem_from_json,
    elem_to_json,
    pure,
    pure_with_square,
    three_pure_product,
)

coeff = st.integers(min_value=-6, max_value=6).map(Fraction)
params = st.integers(min_value=-11, max_value=11).filter(lambda n: n != 0)


def elements(alg):
    return st.tuples(coeff, coeff, coeff, coeff).map(lambda c: alg.element(*c))


def test_hamilton_table():
    h = algebra(-1, -1)
    i, j, k = h.i(), h.j(), h.k()
    assert i * j == k
    assert j * i == -k
    assert j * k == i
    assert k * j == -i
    assert k * i == j
    assert i * k == -j
    assert i * i == -h.one()
    assert (i + j) * (i - j) == -k * Fraction(2) + h.element(0, 0, 0, 0)


def test_nrd_and_inverse():
    h = algebra(-1, -1)
    q = h.element(1, 2, 3, 4)
    assert q.nrd == 30
    assert q * q.inverse() == h.one()
    assert q.inverse() * q == h.one()
    with pytest.raises(DomainError):
        algebra(1, 1).element(1, 1, 0, 0).inverse()   # nrd = 0 in split algebra


@given(st.data(), params, params)
@settings(max_examples=60)
def test_product_is_associative_and_norm_multiplicative(data, a, b):
    alg = algebra(a, b)
    q1 = data.draw(elements(alg))
    q2 = data.draw(elements(alg))
    q3 = data.draw(elements(alg))
    assert (q1 * q2) * q3 == q1 * (q2 * q3)
    assert (q1 * q2).nrd == q1.nrd * q2.nrd
    assert (q1 * q2).conjugate() == q2.conjugate() * q1.conjugate()


@given(st.data(), params, params)
@settings(max_examples=40)
def test_norm_form_agrees_with_nrd(data, a, b):
    alg = algebra(a, b)
    q = data.draw(elements(alg))
    assert alg.norm_form(q.coeffs) == q.nrd


def test_pure_square_is_minus_nrd():
    alg = algebra(2, 5)
    p = pure(alg, 1, 1, 1)
    assert p * p == alg.one() * p.square_scalar()


def test_anticommutant():
    alg = algebra(-1, -1)
    u = anticommutant(alg, alg.i())
    assert (u * alg.i() + alg.i() * u).is_zero()
    assert u.is_pure() and u.is_invertible()
    # a split algebra with isotropic pures still yields an invertible one
    split = algebra(1, 1)
    p = split.element(0, 1, 2, 0)
    assert p.is_invertible()
    v = anticommutant(split, p)
    assert (v * p + p * v).is_zero() and v.is_invertible()
    with pytest.raises(DomainError):
        anticommutant(split, split.element(0, 3, 4, 5))   # -9-16+25 = 0


@given(st.data(), params, params)
@settings(max_examples=50)
def test_anticommutant_on_random_pures(data, a, b):
    alg = algebra(a, b)
    q = data.draw(elements(alg))
    p = pure(alg, *q.coeffs[1:])
    if p.is_zero() or not p.is_invertible():
        return
    u = anticommutant(alg, p)
    assert u.is_pure() and u.is_invertible()
    assert (u * p + p * u).is_zero()


def test_pure_with_square():
    h = algebra(-1, -1)
    j = pure_with_square(h, -5)
    assert (j * j) == h.one() * Fraction(-5)
    with pytest.raises(DomainError):
        pure_with_square(h, 3)   # positive squares need isotropic pures
    s = algebra(2, 5)
    u = pure_with_square(s, -2)
    assert u.square_scalar() == -2


def test_cross_algebra_arithmetic_rejected():
    h1, h2 = algebra(-1, -1), algebra(2, 5)
    with pytest.raises(DomainError):
        h1.i() * h2.j()


def test_second_slot():
    # without a witness pure, the second slot is solved for over F2
    assert second_slot(-1, algebra(-1, -1).brauer, [2, REAL]) == (-1, ())
    h = algebra(2, 5)
    for a in (5, -10):
        b, _ = second_slot(a, h.brauer, [2, 5, REAL])
        assert brauer_from_symbol(a, b) == h.brauer
    with pytest.raises(DomainError):
        # pure squares are negative
        second_slot(2, algebra(-1, -1).brauer, [2, REAL])
    with pytest.raises(DomainError):
        # 4^2 = 5 mod 11
        second_slot(5, BrauerClass(frozenset({2, 11})), [2, 5, REAL])


def test_common_value_witness_frozen():
    h = algebra(-1, -1)
    q, j = common_value_witness(h, h)
    assert (q, j) == (h.one(), h.i())
    q, j = common_value_witness(algebra(2, 5), h)
    assert q == algebra(2, 5).one() and j == h.i()


@given(st.sampled_from([(-1, -1), (2, 5), (1, 1), (-1, 2), (-3, -1), (13, -1)]),
       st.sampled_from([(-1, -1), (2, 5), (1, 1), (-1, 2), (-3, -1), (13, -1)]))
@settings(max_examples=40, deadline=None)
def test_common_value_witness_is_sound(p1, p2):
    h1, h2 = algebra(*p1), algebra(*p2)
    out = common_value_witness(h1, h2)
    assert out is not None
    q, j = out
    assert q.alg == h1 and j.alg == h2 and j.is_pure()
    assert q.nrd == -j.square_scalar() != 0


def test_common_value_witness_always_succeeds_over_q():
    # sig(n1) is 0 or 4 and sig(n0_2) is -1 or 3, so the 7-dim difference
    # form has |signature| <= 5 < 7: always indefinite, always isotropic,
    # so every pair must produce a witness.
    for p1 in [(-1, -1), (2, 5), (-1, 2)]:
        for p2 in [(-1, -1), (-3, -1), (13, -1)]:
            assert common_value_witness(algebra(*p1), algebra(*p2)) is not None


def test_three_pure_product_frozen():
    h = algebra(-1, -1)
    q = h.element(1, 1, 0, 0)
    q1, q2, q3 = three_pure_product(h, q)
    assert q1 * q2 * q3 == q and q3 == h.i()
    for f in (q1, q2, q3):
        assert f.is_pure() and f.is_invertible()
    s = algebra(2, 5)
    q1, q2, q3 = three_pure_product(s, s.one())
    assert q1 * q2 * q3 == s.one() and q3 == s.i()
    assert all(f.is_pure() and f.is_invertible() for f in (q1, q2, q3))
    # q i^-1 = 3 is a scalar, so every pure x keeps it pure: the kernel is
    # all three pures, not a plane
    t = algebra(1, 1)
    q = t.element(0, 3, 0, 0)
    q1, q2, q3 = three_pure_product(t, q)
    assert q1 * q2 * q3 == q and q3 == t.i()
    assert all(f.is_pure() and f.is_invertible() for f in (q1, q2, q3))
    with pytest.raises(DomainError):
        three_pure_product(s, algebra(1, 1).one())
    with pytest.raises(DomainError):
        three_pure_product(algebra(1, 1), algebra(1, 1).element(1, 1, 0, 0))


@given(st.data(), params, params)
@settings(max_examples=40, deadline=None)
def test_three_pure_product_random(data, a, b):
    alg = algebra(a, b)
    q = data.draw(elements(alg))
    if not q.is_invertible():
        return
    q1, q2, q3 = three_pure_product(alg, q)
    assert q1 * q2 * q3 == q and q3 == alg.i()
    assert all(f.is_pure() and f.is_invertible() for f in (q1, q2, q3))


def test_elem_json_roundtrip():
    h = algebra(-1, 2)
    q = h.element(Fraction(1, 2), 3, 0, Fraction(-7, 3))
    data = elem_to_json(q)
    assert data == {"alg": {"a": "-1", "b": "2"},
                    "coords": ["1/2", "3", "0", "-7/3"]}
    assert elem_from_json(data) == q
    assert elem_from_json(data, expected=h) == q
    with pytest.raises(DomainError):
        elem_from_json(data, expected=algebra(1, 1))
    with pytest.raises(DomainError):
        elem_from_json({"alg": {"a": "-1", "b": "2"}, "coords": ["1", "0"]})
    with pytest.raises(DomainError):
        elem_from_json({"coords": ["1", "0", "0", "0"]})


def test_brauer_class_is_computed_once_per_algebra(monkeypatch):
    calls = []
    monkeypatch.setattr(quat, "brauer_from_symbol",
                        lambda a, b: calls.append((a, b))
                        or brauer_from_symbol(a, b))
    h = algebra(-1, 3)
    first = h.brauer
    assert not h.is_split() and h.brauer is first
    assert first == brauer_from_symbol(-1, 3)
    assert calls == [(-1, 3)]


def test_reduced_norm_is_computed_once_per_element(monkeypatch):
    calls = []
    norm = Quat.nrd.func
    monkeypatch.setattr(Quat.nrd, "func",
                        lambda q: calls.append(q) or norm(q))
    q = algebra(-1, -1).element(1, 2, 3, 4)
    assert q.nrd == 30 and q.is_invertible()
    assert q * q.inverse() == q.alg.one()
    assert len(calls) == 1
