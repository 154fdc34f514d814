"""The immutable value records: construction, equality, hash, immutability.

Every record class of the package is checked to behave as a frozen
dataclass would: positional and keyword construction, equality only with
an instance of the same class, the hash of the field tuple, assignment and
deletion refused, and invalid input refused with DomainError.
"""

import pytest

from wittforge.cohomology import BrauerClass, H3Class
from wittforge.errors import DomainError
from wittforge.hermitian import SkewHermForm, skew_form
from wittforge.invol12 import (M3H, ExistsOutcome, PfisterDecomposition,
                               ProductPresentation, QuatInvol, Split6)
from wittforge.qarith import REAL
from wittforge.quadform import QuadForm, diagonal, witt_decompose
from wittforge.quat import QuaternionAlgebra, algebra
from wittforge.ramlattice import (TWO_GAMMA_F, ArmatureDecomposition,
                                  ValueLattice, analyze_obstruction)

H = algebra(-1, -3)
SLOTS = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))
REPORT = analyze_obstruction(SLOTS)
SPLIT6 = Split6(diagonal(1, 1, 1, 1, 1, -1))

RECORDS = [
    BrauerClass(frozenset({REAL, 3})),
    H3Class(1),
    diagonal(1, 2, -3),
    diagonal(1, 2, -3).invariants,
    witt_decompose(diagonal(1, -1, 5)),
    H,
    H.i() + H.k(),
    skew_form(H, H.i(), H.j(), H.k()),
    SPLIT6,
    M3H(skew_form(H, H.i(), H.j(), H.k())),
    QuatInvol(H, H.i()),
    ProductPresentation(SPLIT6, QuatInvol(H, H.i())),
    PfisterDecomposition(5, (1, 2, 3), (2, 3, 6)),
    ExistsOutcome("unknown"),
    TWO_GAMMA_F,
    REPORT.checks[0].splitting,
    REPORT.checks[0],
    REPORT,
]


def _fields(record) -> dict:
    return {name: getattr(record, name)
            for name in type(record).__annotations__}


@pytest.mark.parametrize("record", RECORDS,
                         ids=lambda r: type(r).__name__)
def test_record_behaves_as_a_frozen_dataclass(record):
    cls = type(record)
    fields = _fields(record)
    values = tuple(fields.values())
    assert cls(*values) == record
    assert cls(**fields) == record
    assert hash(cls(*values)) == hash(record) == hash(values)
    # equal only to an instance of the same class, whatever its fields

    class Sibling(cls):
        pass

    twin = Sibling(*values)
    assert twin != record and record != twin
    assert record != values
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(record, name, fields[name])
    with pytest.raises(AttributeError):
        delattr(record, name)
    assert _fields(record) == fields
    assert repr(record).startswith(f"{cls.__name__}({name}=")


def test_all_eighteen_record_classes_are_covered():
    assert len({type(r) for r in RECORDS}) == 18


def test_cached_facts_are_kept_on_the_record():
    q = diagonal(3, -5, 7)
    assert q.invariants is q.invariants
    assert H.brauer is H.brauer
    assert H.norm_form is H.norm_form
    assert H.pure_norm_form is H.pure_norm_form
    pres = ProductPresentation(SPLIT6, QuatInvol(H, H.i()))
    assert pres.disc_symbol is pres.disc_symbol


@pytest.mark.parametrize("build", [
    lambda: BrauerClass(frozenset({2})),
    lambda: H3Class(2),
    lambda: QuadForm((1, 0)),
    lambda: QuaternionAlgebra(0, 1),
    lambda: SkewHermForm(H, ()),
    lambda: SkewHermForm(H, (H.one(),)),
    lambda: Split6(diagonal(1, 2)),
    lambda: M3H(skew_form(H, H.i())),
    lambda: QuatInvol(H, H.one()),
    lambda: PfisterDecomposition(5, (1, 2, 3), (2, 3, 5)),
    lambda: ValueLattice(((2, 0, 0, 0),)),
    lambda: ArmatureDecomposition(frozenset(), frozenset()),
])
def test_invalid_input_raises_domain_error(build):
    with pytest.raises(DomainError):
        build()
