"""Value-group arithmetic for totally ramified symbol algebras.

The base field is an iterated Laurent series field in four variables, so
its value group is Z^4, ordered with later variables dominant.  Quaternion
factors of a totally ramified biquaternion algebra pick up value groups
between Gamma_F = Z^4 and Gamma_D = (1/2 Z)^4.  To stay in exact integer
arithmetic every vector in this module is stored doubled: Gamma_F becomes
2Z^4, Gamma_D becomes Z^4, and a coset representative of Gamma_D/Gamma_F
is a 0/1 vector.

The point of the module is the no-involution certificate: for a division
algebra of this kind, every decomposition into two quaternion factors
splits the quotient Gamma_D/Gamma_F into two rank 2 subgroups, and the
norm value groups 2*Gamma_{H'} and 2*Gamma_H then meet exactly in
2*Gamma_F.  A pure quaternion in the second factor has valuation outside
Gamma_F, so its norm lands outside 2*Gamma_F and the two factors can never
share a nonzero norm value.  obstruction_check replays that argument: the
lattice facts it needs depend on one rank 2 subgroup at a time, so they are
checked once for each of the 35 subgroups, and every one of the 560
splittings then meets in exactly 2*Gamma_F.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Iterable, Sequence

from ._record import Record, set_field
from .errors import DomainError, require

__all__ = ["ArmatureDecomposition", "GAMMA_F", "TWO_GAMMA_F", "ValueLattice",
           "all_armature_decompositions", "analyze_obstruction",
           "armature_valuation", "lex_key", "obstruction_check",
           "slots_from_json", "slots_to_json"]

DIM = 4

Vec = tuple[int, int, int, int]

ZERO_VEC: Vec = (0, 0, 0, 0)


def _vec(data: Sequence[int]) -> Vec:
    if not isinstance(data, (list, tuple)):
        raise DomainError(f"value vectors are lists, got {type(data).__name__}")
    if len(data) != DIM:
        raise DomainError(f"value vectors have {DIM} coordinates, got {len(data)}")
    out = []
    for x in data:
        if not isinstance(x, int) or isinstance(x, bool):
            raise DomainError(f"value vectors are integral, got {x!r}")
        out.append(x)
    return tuple(out)


def _add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def _xor(u: Vec, v: Vec) -> Vec:
    return tuple((a + b) % 2 for a, b in zip(u, v))


def lex_key(vec: Sequence[int]) -> tuple[int, ...]:
    """Sort key for the value order: later coordinates dominate."""
    return tuple(reversed(vec))


def _row_hnf(rows: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    # upper triangular, positive pivots, entries above a pivot reduced
    # into [0, pivot); unique for a given row lattice
    work = [list(r) for r in rows if any(r)]
    out: list[list[int]] = []
    pivot_cols: list[int] = []
    for col in range(width):
        live = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            base = live[0]
            nxt = [base]
            for r in live[1:]:
                q = r[col] // base[col]
                row = [x - q * y for x, y in zip(r, base)]
                (nxt if row[col] != 0 else rest).append(row)
            live = nxt
        if live:
            pivot = live[0] if live[0][col] > 0 else [-x for x in live[0]]
            out.append(pivot)
            pivot_cols.append(col)
        work = rest
    for i, col in enumerate(pivot_cols):
        for j in range(i):
            q = out[j][col] // out[i][col]
            if q:
                out[j] = [x - q * y for x, y in zip(out[j], out[i])]
    return out


class ValueLattice(Record):
    """Full rank sublattice of Z^4 in doubled coordinates.

    rows is the Hermite normal form basis, so equal lattices compare
    equal structurally.  Value groups proper additionally satisfy
    Gamma_F <= L <= Gamma_D; scaled copies such as 2*Gamma_H leave that
    window but reuse the same arithmetic.
    """

    rows: tuple[Vec, ...]

    def __init__(self, rows: tuple[Vec, ...]):
        if len(rows) != DIM:
            raise DomainError("generators do not span a full rank lattice")
        set_field(self, "rows", rows)

    @staticmethod
    def from_generators(*gens: Sequence[int]) -> "ValueLattice":
        hnf = _row_hnf([_vec(g) for g in gens], DIM)
        return ValueLattice(tuple(tuple(r) for r in hnf))

    @staticmethod
    def value_group(*gens: Sequence[int]) -> "ValueLattice":
        """Lattice generated by Gamma_F together with the given vectors.

        In doubled coordinates it contains Gamma_F = 2Z^4 and lies in
        Gamma_D = Z^4 by construction, so it is a value group unchecked."""
        base = [[2 if i == j else 0 for j in range(DIM)] for i in range(DIM)]
        return ValueLattice.from_generators(*gens, *base)

    def contains(self, vec: Sequence[int]) -> bool:
        v = list(_vec(vec))
        for row in self.rows:
            col = next(c for c, x in enumerate(row) if x)
            if v[col] % row[col]:
                return False
            q = v[col] // row[col]
            v = [x - q * y for x, y in zip(v, row)]
        return not any(v)

    def is_sublattice_of(self, other: "ValueLattice") -> bool:
        return all(other.contains(r) for r in self.rows)

    def is_value_group(self) -> bool:
        doubled_gamma_f = ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0),
                           (0, 0, 0, 2))
        return all(self.contains(r) for r in doubled_gamma_f)

    def scaled(self, k: int) -> "ValueLattice":
        if k <= 0:
            raise DomainError("lattice scaling wants a positive integer")
        return ValueLattice(tuple(tuple(k * x for x in r) for r in self.rows))

    def intersection(self, other: "ValueLattice") -> "ValueLattice":
        stacked = [list(r) + list(r) for r in self.rows]
        stacked += [list(r) + [0] * DIM for r in other.rows]
        tail = [r[DIM:] for r in _row_hnf(stacked, 2 * DIM)
                if not any(r[:DIM])]
        return ValueLattice.from_generators(*tail)


GAMMA_F = ValueLattice.value_group()
# norm values of Gamma_F, where every splitting's two factors meet
TWO_GAMMA_F = GAMMA_F.scaled(2)


def armature_valuation(coeff_values: Sequence[Sequence[int] | None],
                       basis_values: Sequence[Sequence[int]]) -> Vec:
    """Value of lambda_0 + lambda_1 i + lambda_2 j + lambda_3 k.

    coeff_values carries v(lambda_m) per slot, with None marking an
    absent coefficient; basis_values carries v(1), v(i), v(j), v(k).
    For an armature gauge the valuation of the sum is the minimum of
    the per-slot values v(lambda_m) + v(b_m) in the value order, which
    requires the basis values to sit in distinct cosets mod Gamma_F.
    """
    if len(coeff_values) != DIM or len(basis_values) != DIM:
        raise DomainError("armature data has four coefficient and basis slots")
    basis = [_vec(b) for b in basis_values]
    cosets = {tuple(x % 2 for x in b) for b in basis}
    if len(cosets) != DIM:
        raise DomainError("basis values must lie in distinct cosets of Gamma_F")
    candidates = [_add(_vec(c), b)
                  for c, b in zip(coeff_values, basis) if c is not None]
    if not candidates:
        raise DomainError("the zero element has no valuation")
    return min(candidates, key=lex_key)


class ArmatureDecomposition(Record):
    """Splitting of Gamma_D/Gamma_F = (Z/2)^4 into two rank 2 halves."""

    s: frozenset[Vec]
    t: frozenset[Vec]

    def __init__(self, s: frozenset[Vec], t: frozenset[Vec]):
        subgroups = _rank2_subgroups()
        if s not in subgroups or t not in subgroups:
            raise DomainError("each half must be a rank 2 subgroup of 0/1 "
                              "coset vectors")
        if s & t != {ZERO_VEC}:
            raise DomainError("the two halves must meet trivially")
        set_field(self, "s", s)
        set_field(self, "t", t)

    def s_gens(self) -> tuple[Vec, Vec]:
        return _two_generators(self.s)

    def t_gens(self) -> tuple[Vec, Vec]:
        return _two_generators(self.t)


def _two_generators(part: frozenset[Vec]) -> tuple[Vec, Vec]:
    # any two distinct nonzero elements of a Klein four group generate it
    a, b, _ = sorted(v for v in part if v != ZERO_VEC)
    return a, b


@lru_cache(maxsize=1)
def _rank2_subgroups() -> tuple[frozenset[Vec], ...]:
    nonzero = [tuple((n >> i) & 1 for i in range(DIM))
               for n in range(1, 2 ** DIM)]
    groups = {frozenset({ZERO_VEC, a, b, _xor(a, b)})
              for a, b in combinations(nonzero, 2)}
    return tuple(sorted(groups, key=lambda g: sorted(g)))


def all_armature_decompositions() -> list[ArmatureDecomposition]:
    """Every ordered pair (S, T) with S + T = (Z/2)^4 and S meet T = 0."""
    out = []
    for s in _rank2_subgroups():
        for t in _rank2_subgroups():
            if s & t == {ZERO_VEC}:
                out.append(ArmatureDecomposition(s, t))
    return out


def _coset_lattice(part: frozenset[Vec]) -> ValueLattice:
    # Gamma_F plus the lifted half-coset vectors, in doubled coordinates
    return ValueLattice.value_group(*sorted(part))


def _certify_norm_lattice(part: frozenset[Vec]) -> None:
    """Check the facts about N(P) = 2 (Gamma_F + lift P) that separate
    every splitting with P as a half.

    Norms of nonzero elements double the valuation, so N(P) holds the
    norm values of the factor whose value group lifts P.  Its basis rows
    are even and halve mod 2 into P, so every element of N(S) meet N(T)
    halves mod 2 into S meet T = 0 and lies in 2 Gamma_F; with 2 Gamma_F
    inside both, the meet is exactly 2 Gamma_F.  A pure quaternion's
    value avoids Gamma_F, so its norm avoids 2 Gamma_F: the armature
    gauge formula makes this exact.
    """
    norm = _coset_lattice(part).scaled(2)
    where = f"norm lattice of {sorted(part)}"
    require(TWO_GAMMA_F.is_sublattice_of(norm), where,
            "2 Gamma_F is not inside")
    for row in norm.rows:
        require(all(x % 2 == 0 for x in row)
                and tuple(x // 2 % 2 for x in row) in part, where,
                f"row {row} does not halve into the subgroup")
    ones = sorted(v for v in part if v != ZERO_VEC)
    pure_val = armature_valuation(
        [None, ZERO_VEC, ZERO_VEC, ZERO_VEC], [ZERO_VEC, *ones])
    norm_val = tuple(2 * x for x in pure_val)
    require(any(x % 2 for x in pure_val), where, "pure value is in Gamma_F")
    require(norm.contains(norm_val), where, "pure norm value is missing")
    require(not TWO_GAMMA_F.contains(norm_val), where,
            "pure norm value is in 2 Gamma_F")


def _mod2_rank(vectors: Sequence[Vec]) -> int:
    pivots: dict[int, int] = {}
    for v in vectors:
        word = sum((x % 2) << i for i, x in enumerate(v))
        while word:
            high = word.bit_length() - 1
            if high in pivots:
                word ^= pivots[high]
            else:
                pivots[high] = word
                break
    return len(pivots)


class SplittingCheck(Record):
    """Outcome of the norm-value test for one armature decomposition."""

    splitting: ArmatureDecomposition
    intersection: ValueLattice
    separated: bool

    def __init__(self, splitting: ArmatureDecomposition,
                 intersection: ValueLattice, separated: bool):
        set_field(self, "splitting", splitting)
        set_field(self, "intersection", intersection)
        set_field(self, "separated", separated)


class ObstructionReport(Record):
    slots: tuple[tuple[Vec, Vec], tuple[Vec, Vec]]
    split_factor: bool
    checks: tuple[SplittingCheck, ...]

    def __init__(self, slots: tuple[tuple[Vec, Vec], tuple[Vec, Vec]],
                 split_factor: bool, checks: tuple[SplittingCheck, ...]):
        set_field(self, "slots", slots)
        set_field(self, "split_factor", split_factor)
        set_field(self, "checks", checks)

    @property
    def obstructed(self) -> bool:
        if self.split_factor:
            return False
        return all(c.separated for c in self.checks)


def _symbol_slots(d: Sequence[Sequence[Sequence[int]]]
                  ) -> tuple[tuple[Vec, Vec], tuple[Vec, Vec]]:
    if not isinstance(d, (list, tuple)) or len(d) != 2:
        raise DomainError("expected a pair of quaternion symbols")
    out = []
    for factor in d:
        if not isinstance(factor, (list, tuple)) or len(factor) != 2:
            raise DomainError("a symbol has exactly two slots")
        out.append((_vec(factor[0]), _vec(factor[1])))
    return tuple(out)


def analyze_obstruction(d: Sequence[Sequence[Sequence[int]]]
                        ) -> ObstructionReport:
    """Full no-involution analysis for a pair of monomial symbols.

    A slot whose exponent vector is even denotes a square monomial, so
    its factor is split, the algebra has index at most two, and the
    obstruction is absent without any lattice work.  Otherwise the four
    slots must be independent mod 2 (the totally ramified case), and
    then every armature decomposition is separated: its two norm value
    groups meet in exactly 2*Gamma_F, whatever the slots are.
    """
    slots = _symbol_slots(d)
    flat = [v for factor in slots for v in factor]
    if any(all(x % 2 == 0 for x in v) for v in flat):
        return ObstructionReport(slots, True, ())
    if _mod2_rank(flat) != DIM:
        raise DomainError("the symbol pair is not totally ramified: "
                          "slot monomials are dependent mod squares")
    return ObstructionReport(slots, False, _separated_checks())


@lru_cache(maxsize=1)
def _separated_checks() -> tuple[SplittingCheck, ...]:
    # the table does not depend on the slots: certify each rank 2
    # subgroup once, after which every splitting's halves meet in
    # exactly 2 Gamma_F (ArmatureDecomposition has checked S meet T = 0)
    for part in _rank2_subgroups():
        _certify_norm_lattice(part)
    return tuple(SplittingCheck(dec, TWO_GAMMA_F, True)
                 for dec in all_armature_decompositions())


def obstruction_check(d: Sequence[Sequence[Sequence[int]]]) -> bool:
    """True when no decomposition admits the common norm value."""
    return analyze_obstruction(d).obstructed


def slots_to_json(slots) -> dict:
    return {"slots": [[list(v) for v in factor]
                      for factor in _symbol_slots(slots)]}


def slots_from_json(data) -> tuple[tuple[Vec, Vec], tuple[Vec, Vec]]:
    if not isinstance(data, dict) or "slots" not in data:
        raise DomainError('symbol input wants {"slots": [[vec, vec], [vec, vec]]}')
    return _symbol_slots(data["slots"])
