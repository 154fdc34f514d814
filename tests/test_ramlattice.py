"""Value groups and the no-involution certificate.

Every lattice the certificate names contains 2*Gamma_F = 4Z^4 in doubled
coordinates, so the tests read it through its image in (Z/4)^4, computed
by the brute-force oracle in oracles.py, which shares no code with the
package.  The splitting enumeration is cross-checked against an
independent count derived from ordered bases of (Z/2)^4.
"""

from itertools import permutations

import pytest

import oracles
from wittforge.errors import DomainError
from wittforge.ramlattice import (
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

E1, E2, E3, E4 = (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)
ZERO = (0, 0, 0, 0)
# Gamma_F = Z^4 and Gamma_D = (1/2 Z)^4, doubled
GAMMA_F_ROWS = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))
GAMMA_D_ROWS = (E1, E2, E3, E4)

BASIS_D = [[E1, E2], [E3, E4]]


def _xor(u, v):
    return tuple((a + b) % 2 for a, b in zip(u, v))


def _norm_image(part):
    # the image in (Z/4)^4 of N(P) = 2 (Gamma_F + lift P); 2 Gamma_F = 4Z^4
    # is 0 there, so twice the 0/1 vectors of P generate it
    return oracles.closure([tuple(2 * x for x in v) for v in part], 4)


def test_reference_lattices():
    assert TWO_GAMMA_F.rows == ((4, 0, 0, 0), (0, 4, 0, 0),
                                (0, 0, 4, 0), (0, 0, 0, 4))
    assert oracles.image_mod_4(TWO_GAMMA_F.rows) == {ZERO}
    gamma_f = oracles.image_mod_4(GAMMA_F_ROWS)
    gamma_d = oracles.image_mod_4(GAMMA_D_ROWS)
    assert len(gamma_f) == 16 and len(gamma_d) == 256
    assert gamma_f < gamma_d


def test_rank_deficient_generators_rejected():
    # a value lattice is full rank: four rows, no more and no fewer
    with pytest.raises(DomainError):
        ValueLattice((E1, E2, E3))
    with pytest.raises(DomainError):
        ValueLattice((E1, E2, E3, E4, (1, 1, 0, 0)))
    assert ValueLattice(GAMMA_D_ROWS).rows == GAMMA_D_ROWS


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
    # a pure quaternion of the factor over T has its value in a nonzero
    # coset of T: outside Gamma_F = 2Z^4, and its norm outside 4Z^4
    for dec in all_armature_decompositions():
        ones = sorted(v for v in dec.t if v != ZERO)
        val = armature_valuation([None, ZERO, ZERO, ZERO], [ZERO, *ones])
        coset = tuple(x % 2 for x in val)
        assert coset != ZERO and coset in dec.t
        assert any(2 * x % 4 for x in val)


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
    assert all(c.separated for c in report.checks)
    assert all(c.intersection == TWO_GAMMA_F for c in report.checks)
    assert obstruction_check(BASIS_D) is True


def _subgroups_mod_2() -> set:
    # every subgroup of (Z/2)^4: close each set of at most four vectors
    vectors = [tuple((n >> i) & 1 for i in range(4)) for n in range(16)]
    groups = {oracles.closure([ZERO], 2)}
    for _ in range(4):
        groups |= {oracles.closure([*g, v], 2)
                   for g in groups for v in vectors}
    return groups


def test_norm_lattices_meet_in_the_norm_lattice_of_the_meet():
    # N(A) meet N(B) = N(A meet B) for N(P) = 2 (Gamma_F + lift P), over
    # every pair of subgroups of (Z/2)^4: the fact the package's
    # certificate rests on, checked in (Z/4)^4 by the oracle
    groups = _subgroups_mod_2()
    assert sorted(len(g) for g in groups).count(4) == 35
    assert len(groups) == 1 + 15 + 35 + 15 + 1
    images = {g: _norm_image(g) for g in groups}
    assert all(len(images[g]) == len(g) for g in groups)
    for a in groups:
        for b in groups:
            assert images[a] & images[b] == images[a & b]


def test_every_splitting_meets_in_two_gamma_f_by_oracle():
    # the meet of every splitting's two norm lattices, which
    # analyze_obstruction does not compute: the rows it reports must span
    # that meet, and the pure norm value of T must lie in N(T) and
    # outside 2 Gamma_F
    report = analyze_obstruction(BASIS_D)
    decs = all_armature_decompositions()
    assert [c.splitting for c in report.checks] == decs
    for dec, check in zip(decs, report.checks):
        meet = _norm_image(dec.s) & _norm_image(dec.t)
        assert oracles.image_mod_4(check.intersection.rows) == meet
        ones = sorted(v for v in dec.t if v != ZERO)
        pure_val = armature_valuation(
            [None, ZERO, ZERO, ZERO], [ZERO, *ones])
        norm_val = tuple(2 * x % 4 for x in pure_val)
        assert norm_val in _norm_image(dec.t) and norm_val not in meet
        assert check.separated


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
