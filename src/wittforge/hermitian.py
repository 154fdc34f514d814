"""Diagonal skew-hermitian forms over a quaternion algebra.

A rank n skew-hermitian form <q1, ..., qn> (entries pure and invertible,
conjugation as the involution) is the coordinate description of an
orthogonal involution on a degree 2n algebra.  Two move sets matter here:
rescaling an entry q by the square of an anticommuting element, which
preserves the isometry class while changing the written entry, and the
transport to an honest 2n-dimensional quadratic form when the algebra
splits.  The transport is the independent route used to cross-check the
closed-form discriminant.
"""

from fractions import Fraction

from . import _linalg
from ._record import Record, set_field
from .errors import DomainError, require
from .qarith import squarefree_part
from .quadform import QuadForm
from .quat import Quat, QuaternionAlgebra, algebra_from_json, algebra_to_json, \
    anticommutant, complement_slot, elem_from_json, elem_to_json, \
    pure_with_square


class SkewHermForm(Record):
    """<q1, ..., qn> with pure invertible entries."""

    alg: QuaternionAlgebra
    entries: tuple[Quat, ...]

    def __init__(self, alg: QuaternionAlgebra, entries: tuple[Quat, ...]):
        if not entries:
            raise DomainError("rank must be positive")
        for q in entries:
            if q.alg != alg:
                raise DomainError("entry from a different algebra")
            if not q.is_pure() or not q.is_invertible():
                raise DomainError("entries must be pure and invertible")
        set_field(self, "alg", alg)
        set_field(self, "entries", entries)

    @property
    def rank(self) -> int:
        return len(self.entries)


def skew_form(alg: QuaternionAlgebra, *entries: Quat) -> SkewHermForm:
    return SkewHermForm(alg, tuple(entries))


def disc_adjoint(form: SkewHermForm) -> int:
    """Discriminant of the adjoint orthogonal involution: (-1)^n prod nrd(qi),
    as a signed squarefree int."""
    prod = Fraction(1)
    for q in form.entries:
        prod *= q.nrd
    return squarefree_part(prod * (-1) ** form.rank)


def rescale_entry(form: SkewHermForm, idx: int) -> SkewHermForm:
    """Replace entry q by c q, c the square of an anticommuting element.

    <q> = <u q u-bar> = <(u^2) q> for invertible pure u with uq = -qu, so the
    isometry class is untouched; only the written entry moves.
    """
    if not 0 <= idx < form.rank:
        raise DomainError(f"no entry {idx} in a rank {form.rank} form")
    q = form.entries[idx]
    entries = list(form.entries)
    entries[idx] = q * complement_slot(form.alg, q.square_scalar(), q)
    return SkewHermForm(form.alg, tuple(entries))


# --- transport to a quadratic form when the algebra splits -----------------

def _split_module_basis(alg: QuaternionAlgebra) -> tuple[Quat, Quat]:
    """A basis (e, nu e) of the left ideal He for a rank 1 idempotent e."""
    mu = pure_with_square(alg, 1)
    nu = anticommutant(alg, mu)
    e = (alg.one() + mu) * Fraction(1, 2)
    return e, nu * e


def _left_mult_matrix(x: Quat, basis: tuple[Quat, Quat]) -> _linalg.Matrix:
    cols = []
    bmat = _linalg.transpose(_linalg.mat([b.coeffs for b in basis]))
    for b in basis:
        target = (x * b).coeffs
        sol = _linalg.solve(bmat, [Fraction(c) for c in target])
        require(sol is not None, x, basis)
        cols.append(sol)
    return _linalg.transpose(_linalg.mat(cols))


_S = _linalg.mat([[0, 1], [-1, 0]])
_S_INV = _linalg.mat([[0, -1], [1, 0]])


def to_quadratic_form(form: SkewHermForm) -> QuadForm:
    """The 2n-dimensional quadratic form adjoint to the same involution,
    available when the algebra splits.  Well defined up to a scalar, which
    no even-dimensional discriminant ever sees.

    Conjugation transported to the 2-dimensional simple module is the
    symplectic adjoint for S = [[0,1],[-1,0]], so S times the left
    multiplication matrix of a pure entry is symmetric and the blocks
    assemble into a Gram matrix over Q.
    """
    if not form.alg.is_split():
        raise DomainError("transport needs a split algebra")
    basis = _split_module_basis(form.alg)
    n = form.rank
    gram = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for t, q in enumerate(form.entries):
        lm = _left_mult_matrix(q, basis)
        conj = _left_mult_matrix(q.conjugate(), basis)
        adj = _linalg.mat_mul(_linalg.mat_mul(_S_INV, _linalg.transpose(lm)), _S)
        require(conj == adj, q, lm)
        block = _linalg.mat_mul(_S, lm)
        require(block[0][1] == block[1][0], q)
        for r in range(2):
            for c in range(2):
                gram[2 * t + r][2 * t + c] = block[r][c]
    diag, _ = _linalg.congruence_diagonalize(gram)
    require(all(x != 0 for x in diag), form)
    return QuadForm(tuple(diag))


# --- serialization ---------------------------------------------------------

def to_json(form: SkewHermForm) -> dict:
    return {
        "alg": algebra_to_json(form.alg),
        "entries": [elem_to_json(q) for q in form.entries],
    }


def from_json(data: dict) -> SkewHermForm:
    if not isinstance(data, dict) or "alg" not in data or "entries" not in data:
        raise DomainError("skew-hermitian JSON needs 'alg' and 'entries'")
    alg = algebra_from_json(data["alg"])
    if not isinstance(data["entries"], list) or not data["entries"]:
        raise DomainError("entries must be a nonempty list")
    entries = tuple(elem_from_json(q, expected=alg) for q in data["entries"])
    return SkewHermForm(alg, entries)
