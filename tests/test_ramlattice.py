"""Value-group lattices and the no-involution certificate.

The doubled-coordinate convention makes every expected basis spellable
as small integer rows, so most tests freeze Hermite normal forms
directly.  The splitting enumeration is cross-checked against an
independent count derived from ordered bases of (Z/2)^4.
"""

from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge.errors import DomainError
from wittforge.ramlattice import (
    GAMMA_F,
    TWO_GAMMA_F,
    ArmatureDecomposition,
    ValueLattice,
    all_armature_decompositions,
    analyze_obstruction,
    armature_valuation,
    lex_key,
    obstruction_check,
    slots_from_json,
    slots_to_json,
)
from wittforge.ramlattice import _coset_lattice

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
ZERO = (0, 0, 0, 0)
# Gamma_D = (1/2 Z)^4, the value group of the division algebra, doubled
GAMMA_D = ValueLattice.from_generators(E1, E2, E3, E4)

BASIS_D = [[E1, E2], [E3, E4]]


def _xor(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def test_reference_lattices():
    assert GAMMA_F.rows == ((2, 0, 0, 0), (0, 2, 0, 0),
                            (0, 0, 2, 0), (0, 0, 0, 2))
    assert GAMMA_D.rows == (E1, E2, E3, E4)
    assert GAMMA_F.is_sublattice_of(GAMMA_D)
    assert not GAMMA_D.is_sublattice_of(GAMMA_F)
    assert GAMMA_F.is_value_group() and GAMMA_D.is_value_group()


def test_hnf_is_canonical():
    gens = [(2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2), E1, E2]
    lat = ValueLattice.from_generators(*gens)
    # reordering, negating, or adding redundant generators of the same
    # span all land on the same canonical basis
    same_span = [
        [gens[i] for i in (5, 3, 1, 0, 2, 4)],
        [tuple(-x for x in g) for g in gens],
        gens + [(1, 1, 0, 0), (3, 0, 0, 0), (1, -1, 2, -2)],
    ]
    for variant in same_span:
        assert ValueLattice.from_generators(*variant) == lat
    # idempotence: the HNF of an HNF basis is itself
    assert ValueLattice.from_generators(*lat.rows) == lat


def test_rank_deficient_generators_rejected():
    with pytest.raises(DomainError):
        ValueLattice.from_generators(E1, E2, E3)
    with pytest.raises(DomainError):
        ValueLattice.from_generators(E1, E2, E3, (1, 1, 0, 0))


def test_contains_and_index():
    # index 4 in Gamma_D and over Gamma_F: the rows are E1, E2, 2E3, 2E4
    lat = ValueLattice.value_group(E1, E2)
    assert lat.contains((1, 3, 2, -4))
    assert not lat.contains((0, 0, 1, 0))
    assert lat.is_sublattice_of(GAMMA_D) and GAMMA_F.is_sublattice_of(lat)
    assert not GAMMA_D.is_sublattice_of(lat)


def test_value_group_of_symbol_examples():
    # a symbol's value group is Gamma_F + (1/2)v(m1)Z + (1/2)v(m2)Z for
    # its slot monomials: in doubled coordinates, the slot vectors as
    # written; square slots add nothing
    assert ValueLattice.value_group(E1, E2).rows == (
        (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
    assert ValueLattice.value_group(ZERO, (2, 0, -2, 4)) == GAMMA_F
    assert ValueLattice.value_group((1, 0, 1, 0), E2).rows == (
        (1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))


def test_value_group_of_symbol_validation():
    with pytest.raises(DomainError):
        ValueLattice.value_group((1, 0, 0), E2)
    with pytest.raises(DomainError):
        ValueLattice.value_group(("1", 0, 0, 0), E2)


BASIS = [ZERO, E1, E2, (1, 1, 0, 0)]


def test_armature_valuation_single_slot():
    out = armature_valuation([None, None, (4, -2, 0, 6), None], BASIS)
    assert out == (4, -1, 0, 6)


def test_armature_valuation_minimum_and_ties():
    # lambda_0 has value (2,0,0,0), the i slot sits lower
    assert armature_valuation([(2, 0, 0, 0), ZERO, None, None],
                              BASIS) == (1, 0, 0, 0)
    # equal minima stay well-defined
    assert armature_valuation([(1, 0, 0, 0), ZERO, None, None],
                              BASIS) == (1, 0, 0, 0)


def test_armature_valuation_tower_order():
    # later variables dominate: v(x1) < v(y1) because x1 + y1 is a unit
    # times x1 in the y1-adic layer
    assert armature_valuation([None, ZERO, ZERO, None], BASIS) == E1
    assert lex_key((0, 0, 0, 1)) > lex_key((5, -7, 9, 0))


def test_armature_valuation_preconditions():
    with pytest.raises(DomainError):
        armature_valuation([ZERO, None, None, None],
                           [ZERO, E1, E2, (1, 0, 2, 0)])   # e1 coset twice
    with pytest.raises(DomainError):
        armature_valuation([None, None, None, None], BASIS)
    with pytest.raises(DomainError):
        armature_valuation([ZERO, None, None], BASIS)


def test_pure_elements_leave_gamma_f():
    two_gamma_f = GAMMA_F.scaled(2)
    for dec in all_armature_decompositions()[:40]:
        ones = sorted(v for v in dec.t if v != ZERO)
        val = armature_valuation([None, ZERO, ZERO, ZERO], [ZERO, *ones])
        assert not GAMMA_F.contains(val)
        assert not two_gamma_f.contains(tuple(2 * x for x in val))


def test_armature_decomposition_validation():
    s = frozenset({ZERO, E1, E2, (1, 1, 0, 0)})
    t = frozenset({ZERO, E3, E4, (0, 0, 1, 1)})
    dec = ArmatureDecomposition(s, t)
    assert dec.s_gens() == ((0, 1, 0, 0), (1, 0, 0, 0))
    with pytest.raises(DomainError):
        ArmatureDecomposition(s, s)   # overlap
    with pytest.raises(DomainError):
        ArmatureDecomposition(frozenset({ZERO, E1, E2, E3}), t)   # not closed
    with pytest.raises(DomainError):
        ArmatureDecomposition(frozenset({E1, E2}), t)
    # closed under addition mod 2, but not a subgroup of 0/1 coset vectors
    even = frozenset({ZERO, (2, 0, 0, 0), (0, 2, 0, 0), (2, 2, 0, 0)})
    with pytest.raises(DomainError):
        ArmatureDecomposition(even, t)


def test_splitting_enumeration_matches_brute_force():
    # ordered bases of (Z/2)^4 come in groups of |GL_2|^2 = 36 per
    # ordered splitting: 20160 / 36 = 560
    nonzero = [tuple((n >> i) & 1 for i in range(4)) for n in range(1, 16)]
    seen = set()
    bases = 0
    for a, b, c, d in permutations(nonzero, 4):
        s = {ZERO, a, b, _xor(a, b)}
        if len(s) != 4:
            continue
        t = {ZERO, c, d, _xor(c, d)}
        if len(t) != 4 or s & t != {ZERO}:
            continue
        bases += 1
        seen.add((frozenset(s), frozenset(t)))
    assert bases == 20160
    assert len(seen) == 20160 // 36 == 560
    enumerated = {(dec.s, dec.t) for dec in all_armature_decompositions()}
    assert enumerated == seen


def test_standard_basis_pair_obstruction():
    report = analyze_obstruction(BASIS_D)
    assert report.obstructed and not report.split_factor
    assert len(report.checks) == 560
    two_gamma_f = GAMMA_F.scaled(2)
    assert all(c.separated for c in report.checks)
    assert all(c.intersection == two_gamma_f for c in report.checks)
    assert obstruction_check(BASIS_D) is True


def test_every_splitting_meets_in_two_gamma_f_by_hnf():
    # the exact lattice intersection of every splitting, which
    # analyze_obstruction no longer computes: its rows must be what the
    # per-subgroup certificate concludes
    report = analyze_obstruction(BASIS_D)
    decs = all_armature_decompositions()
    assert [c.splitting for c in report.checks] == decs
    assert TWO_GAMMA_F == GAMMA_F.scaled(2)
    for dec, check in zip(decs, report.checks):
        for part, gens in ((dec.s, dec.s_gens()), (dec.t, dec.t_gens())):
            assert _coset_lattice(part) == ValueLattice.value_group(*gens)
        norm_hp = _coset_lattice(dec.s).scaled(2)
        norm_h = _coset_lattice(dec.t).scaled(2)
        assert TWO_GAMMA_F.is_sublattice_of(norm_hp)
        ones = sorted(v for v in dec.t if v != ZERO)
        pure_val = armature_valuation(
            [None, ZERO, ZERO, ZERO], [ZERO, *ones])
        assert any(x % 2 for x in pure_val)
        norm_val = tuple(2 * x for x in pure_val)
        assert norm_h.contains(norm_val)
        assert not TWO_GAMMA_F.contains(norm_val)
        inter = norm_hp.intersection(norm_h)
        assert inter == TWO_GAMMA_F
        assert check.intersection == inter and check.separated


def test_totally_ramified_slot_sets_share_one_table():
    # the table depends on the splittings of (Z/2)^4, never on the slots
    other = [[(1, 1, 0, 0), (0, -1, 2, 1)], [(3, 0, 1, 0), (-1, 2, 1, 1)]]
    first, second = analyze_obstruction(BASIS_D), analyze_obstruction(other)
    assert first.slots != second.slots
    assert first.checks == second.checks
    assert second.obstructed and not second.split_factor


def test_obstruction_table_is_built_once():
    # it depends on nothing, so every call returns the same checks object
    other = [[(1, 0, 1, 0), (0, 1, 0, 0)], [(0, 0, 1, 2), (1, 1, 1, 1)]]
    first, second = analyze_obstruction(BASIS_D), analyze_obstruction(other)
    assert first.slots != second.slots
    assert first.checks is second.checks
    assert len(first.checks) == 560


def test_single_decomposition_detail():
    # the splitting induced by the factors themselves
    report = analyze_obstruction(BASIS_D)
    s = frozenset({ZERO, E1, E2, (1, 1, 0, 0)})
    match = [c for c in report.checks if c.splitting.s == s
             and c.splitting.t == frozenset({ZERO, E3, E4, (0, 0, 1, 1)})]
    assert len(match) == 1
    assert match[0].intersection.rows == (
        (4, 0, 0, 0), (0, 4, 0, 0), (0, 0, 4, 0), (0, 0, 0, 4))


def test_split_factor_is_unobstructed():
    degenerate = [[(2, 0, 0, 0), E2], [E3, E4]]   # x1^2 is a square
    report = analyze_obstruction(degenerate)
    assert report.split_factor and not report.obstructed
    assert report.checks == ()
    assert obstruction_check(degenerate) is False
    assert obstruction_check([[ZERO, E2], [E3, E4]]) is False


def test_non_totally_ramified_errors():
    with pytest.raises(DomainError):
        obstruction_check([[E1, E1], [E3, E4]])
    with pytest.raises(DomainError):
        obstruction_check([[E1, E2], [E3, (1, 1, 1, 0)]])
    with pytest.raises(DomainError):
        obstruction_check([[E1, E2]])
    with pytest.raises(DomainError):
        obstruction_check([[E1], [E3, E4]])


def test_slots_json_roundtrip():
    data = slots_to_json(BASIS_D)
    assert data == {"slots": [[[1, 0, 0, 0], [0, 1, 0, 0]],
                              [[0, 0, 1, 0], [0, 0, 0, 1]]]}
    assert slots_from_json(data) == ((E1, E2), (E3, E4))
    with pytest.raises(DomainError):
        slots_from_json({"monomials": []})
    with pytest.raises(DomainError):
        slots_from_json({"slots": [[[1, 0, 0], [0, 1, 0, 0]],
                                   [[0, 0, 1, 0], [0, 0, 0, 1]]]})


bit_vec = st.tuples(*(st.integers(0, 1) for _ in range(4)))


@st.composite
def value_lattices(draw):
    gens = draw(st.lists(bit_vec, min_size=0, max_size=3))
    return ValueLattice.value_group(*gens)


@given(value_lattices(), value_lattices())
@settings(max_examples=40, deadline=None)
def test_intersection_symmetric(a, b):
    assert a.intersection(b) == b.intersection(a)


@given(value_lattices(), value_lattices())
@settings(max_examples=40, deadline=None)
def test_intersection_lower_bound(a, b):
    inter = a.intersection(b)
    assert inter.is_sublattice_of(a) and inter.is_sublattice_of(b)
    assert GAMMA_F.is_sublattice_of(inter)


@given(value_lattices(), value_lattices(), value_lattices())
@settings(max_examples=25, deadline=None)
def test_intersection_monotone(a, b, c):
    small = a.intersection(b)
    assert small.intersection(c).is_sublattice_of(a.intersection(c))


@given(value_lattices())
@settings(max_examples=40, deadline=None)
def test_hnf_idempotent(lat):
    assert ValueLattice.from_generators(*lat.rows) == lat
    assert GAMMA_F.is_sublattice_of(lat)
    assert lat.is_sublattice_of(GAMMA_D)
    assert lat.is_value_group()
