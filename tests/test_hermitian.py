"""Skew-hermitian forms: discriminants, entry rescaling, split transport.

The closed-form discriminant (-1)^n prod nrd(qi) is cross-checked against
the signed discriminant of the transported quadratic form whenever the
algebra splits; the two computations share no code path.
"""

from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.errors import DomainError
from wittforge.hermitian import (
    disc_adjoint,
    from_json,
    skew_form,
    to_json,
    to_quadratic_form,
)
from wittforge.qarith import squarefree_part
from wittforge.quadform import e1, hyperbolic, isometric
from wittforge.quat import algebra, anticommutant, pure, pure_with_square
from wittforge.sampling import random_skew_form, split_algebra

split_params = st.sampled_from([(1, 1), (1, -1), (2, -2), (3, 6), (1, 5), (-1, 2)])
any_params = st.sampled_from([(-1, -1), (2, 5), (1, 1), (-1, 2), (-3, -1), (2, -2)])
coords = st.tuples(*(st.integers(min_value=-4, max_value=4) for _ in range(3)))


def _pures(alg, data, n):
    # non-invertible draws fall back to i, which has nrd -a != 0
    out = []
    for _ in range(n):
        q = pure(alg, *data.draw(coords))
        out.append(q if q.is_invertible() else pure(alg, 1, 0, 0))
    return out


def test_disc_rank_one_is_the_square():
    # <j> with j^2 = a0 has discriminant a0
    h = algebra(-1, -1)
    assert disc_adjoint(skew_form(h, h.i())) == -1
    assert disc_adjoint(skew_form(h, h.j())) == -1
    assert disc_adjoint(skew_form(h, h.element(0, 1, 1, 1))) == -3


def test_disc_rank_three_is_product_of_squares():
    h = algebra(-1, -1)
    f = skew_form(h, h.i(), h.j(), h.k())
    # squares are -1, -1, -1; product -1
    assert disc_adjoint(f) == -1
    g = skew_form(h, h.i(), h.j(), h.element(0, 1, 1, 1))
    assert disc_adjoint(g) == squarefree_part(-1 * -1 * -3)


def test_disc_takes_the_norms_class_by_class():
    # the reduced norms are the primes 1006007 and 1012031, each within
    # trial division; their product is a cofactor factor would refuse
    h = algebra(1, 1)
    f = skew_form(h, pure(h, 1, 1, 1003), pure(h, 2, 1, 1006), h.i())
    assert [q.nrd for q in f.entries] == [1006007, 1012031, -1]
    assert disc_adjoint(f) == 1006007 * 1012031


def test_entries_must_be_pure_invertible():
    h = algebra(1, 1)
    with pytest.raises(DomainError):
        skew_form(h, h.one())
    with pytest.raises(DomainError):
        skew_form(h, h.element(0, 3, 4, 5))


@given(st.data(), any_params)
@settings(max_examples=40, deadline=None)
def test_rescale_preserves_disc_and_class(data, params):
    # <q> = <u q u-bar> = <(u^2) q> for invertible pure u with uq = -qu:
    # rescaling one entry by u^2 keeps the isometry class, and the
    # discriminant sees one nrd multiplied by a square
    alg = algebra(*params)
    f = skew_form(alg, *_pures(alg, data, 3))
    idx = data.draw(st.integers(min_value=0, max_value=2))
    entries = list(f.entries)
    q = entries[idx]
    entries[idx] = q * anticommutant(alg, q).square_scalar()
    assert disc_adjoint(skew_form(alg, *entries)) == disc_adjoint(f)


def test_transport_needs_split_algebra():
    with pytest.raises(DomainError):
        to_quadratic_form(skew_form(algebra(-1, -1), algebra(-1, -1).i()))


@given(st.data(), split_params, st.integers(min_value=1, max_value=3))
@settings(max_examples=50, deadline=None)
def test_split_transport_disc_agreement(data, params, n):
    alg = algebra(*params)
    assert alg.is_split()
    f = skew_form(alg, *_pures(alg, data, n))
    q = to_quadratic_form(f)
    assert q.dim == 2 * n
    assert e1(q) == disc_adjoint(f)


def test_split_transport_frozen():
    # single entry mu with mu^2 = 1 over M2(Q): disc = (-1) nrd(mu) = 1 and
    # the rank 2 adjoint form is the hyperbolic plane
    alg = algebra(1, 1)
    f = skew_form(alg, alg.i())
    assert disc_adjoint(f) == 1
    q = to_quadratic_form(f)
    assert q.dim == 2 and e1(q) == 1
    assert isometric(q, hyperbolic(1))


# to_quadratic_form entries frozen from the transport that solved for left
# multiplication matrices; the form is exact, so the same entries pin it
FROZEN_TRANSPORTS = {
    0: ["16", "-27"],
    1: ["-11/4", "2148/11", "77/16", "-1024/77"],
    2: ["-33", "1675/33", "-33", "994/33", "132", "-1323/44"],
    3: ["10", "-23/5"],
    4: ["-2", "-248", "-5/8", "688/5"],
    5: ["-7", "270/7", "1", "38", "-7", "-241/7"],
    6: ["-2", "-52"],
    7: ["-2067/56", "399056/2067", "975/56", "784/39"],
}


@pytest.mark.parametrize("seed", sorted(FROZEN_TRANSPORTS))
def test_seeded_transports_are_frozen(seed):
    rng = Random(seed)
    alg = split_algebra(rng)
    f = random_skew_form(rng, alg, 1 + seed % 3)
    q = to_quadratic_form(f)
    assert [str(x) for x in q.entries] == FROZEN_TRANSPORTS[seed]


def test_transport_through_a_block_with_zero_diagonal():
    # mu with mu^2 = 1 fixes f = 1 + mu and negates g = nu f, so its
    # block of coefficients S(x, mu y) is [[0, -1], [-1, 0]]: with
    # a = c = 0 and b = -1 it gives <2b, -b/2> = <-2, 1/2> in place, and
    # the block of i follows
    h = algebra(3, 6)
    mu = pure_with_square(h, 1)
    assert mu.coeffs == (0, Fraction(1, 3), Fraction(1, 3), 0)
    q = to_quadratic_form(skew_form(h, mu, h.i()))
    assert [str(x) for x in q.entries] == ["-2", "1/2", "-1/3", "9"]


def test_json_roundtrip():
    h = algebra(-1, -1)
    f = skew_form(h, *(h.i() * lam for lam in (1, 2, 3, 1, 1, 5)))
    data = to_json(f)
    assert set(data) == {"alg", "entries"}
    assert data["alg"] == {"a": "-1", "b": "-1"}
    assert data["entries"][0] == {"alg": {"a": "-1", "b": "-1"},
                                  "coords": ["0", "1", "0", "0"]}
    assert data["entries"][5]["coords"] == ["0", "5", "0", "0"]
    assert from_json(data) == f
    # a key the loader does not read is ignored, "multipliers" included
    assert from_json({**data, "multipliers": ["1", "0"]}) == f
    f2 = skew_form(h, h.i(), h.k())
    assert from_json(to_json(f2)) == f2
    with pytest.raises(DomainError):
        from_json({"alg": {"a": "1"}, "entries": []})
    with pytest.raises(DomainError):
        from_json({"alg": {"a": "1", "b": "1"}, "entries": []})
    mixed = to_json(f2)
    mixed["entries"][1]["alg"]["a"] = "5"
    with pytest.raises(DomainError):
        from_json(mixed)
