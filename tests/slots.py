"""Quaternion symbols and complementary slots for the test files.

A helper for the test files, not a test module.  The library reads f3 and
the additive decomposition off Brauer classes and builds no slot; the
slot formulas those readings replace are checked against the construction
from quaternion elements here.
"""

from wittforge.cohomology import (brauer_from_symbol, nonsquare_slot,
                                  second_slot)
from wittforge.qarith import squarefree_part
from wittforge.quat import anticommutant


def complement_slot(alg, a, witness):
    """A signed squarefree b with alg = (a, b), read off a pure witness
    that squares to a modulo squares: b is the square class of a pure
    anticommuting with it."""
    assert squarefree_part(witness.square_scalar()) == squarefree_part(a)
    b = squarefree_part(anticommutant(alg, witness).square_scalar())
    assert brauer_from_symbol(a, b) == alg.brauer
    return b


def change_of_base_data(p):
    """(H', d0, d, [(a_i, b_i)]) of a hermitian presentation <q1, q2, q3>
    over H': a_i = q_i^2 and b_i a complementary slot, (a_i, b_i) = [H']."""
    base = p.a0.h.alg
    out = []
    for q in p.a0.h.entries:
        a = squarefree_part(q.square_scalar())
        out.append((a, complement_slot(base, a, witness=q)))
    return base, p.d0, p.d, out


def quaternion_symbol(cls):
    """A symbol (a, b) of the Brauer class cls: a read off its places, b
    solved for on them."""
    a = nonsquare_slot(cls.ramified)
    return a, second_slot(a, cls, {2, *cls.ramified})[0]
