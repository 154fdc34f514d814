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

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg
from .errors import DomainError
from .qarith import Rational, as_fraction, rational_from_json, squarefree_part
from .quadform import QuadForm
from .quat import Quat, QuaternionAlgebra, algebra_from_json, algebra_to_json, \
    anticommutant, elem_from_json, elem_to_json, pure_with_square


@dataclass(frozen=True)
class SkewHermForm:
    """<q1, ..., qn> with pure invertible entries.

    Forms built from one base pure element and rational multipliers remember
    that shape (base, multipliers); entry rescaling keeps it.
    """

    alg: QuaternionAlgebra
    entries: tuple[Quat, ...]
    base: Quat | None = None
    multipliers: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if not self.entries:
            raise DomainError("rank must be positive")
        for q in self.entries:
            if q.alg != self.alg:
                raise DomainError("entry from a different algebra")
            if not q.is_pure() or not q.is_invertible():
                raise DomainError("entries must be pure and invertible")
        if (self.base is None) != (self.multipliers is None):
            raise DomainError("base and multipliers come together")
        if self.multipliers is not None:
            if len(self.multipliers) != len(self.entries):
                raise DomainError("one multiplier per entry")
            for lam, q in zip(self.multipliers, self.entries):
                if q != self.base * lam:
                    raise DomainError("entries disagree with base * multipliers")

    @property
    def rank(self) -> int:
        return len(self.entries)


def skew_form(alg: QuaternionAlgebra, *entries: Quat) -> SkewHermForm:
    return SkewHermForm(alg, tuple(entries))


def scaled_form(alg: QuaternionAlgebra, base: Quat,
                multipliers: tuple[Rational, ...]) -> SkewHermForm:
    """The form <lam1 q, ..., lamn q> for one base pure q."""
    lams = tuple(as_fraction(x) for x in multipliers)
    if any(lam == 0 for lam in lams):
        raise DomainError("multipliers must be nonzero")
    entries = tuple(base * lam for lam in lams)
    return SkewHermForm(alg, entries, base=base, multipliers=lams)


def disc_adjoint(form: SkewHermForm) -> int:
    """Discriminant of the adjoint orthogonal involution: (-1)^n prod nrd(qi),
    as a signed squarefree int."""
    prod = Fraction(1)
    for q in form.entries:
        prod *= q.nrd()
    return squarefree_part(prod * (-1) ** form.rank)


def rescale_entry(form: SkewHermForm, idx: int) -> SkewHermForm:
    """Replace entry q by c q, c the square of an anticommuting element.

    <q> = <u q u-bar> = <(u^2) q> for invertible pure u with uq = -qu, so the
    isometry class is untouched; only the written entry moves.
    """
    if not 0 <= idx < form.rank:
        raise DomainError(f"no entry {idx} in a rank {form.rank} form")
    u = anticommutant(form.alg, form.entries[idx])
    c = Fraction(squarefree_part(u.square_scalar()))
    entries = list(form.entries)
    entries[idx] = entries[idx] * c
    if form.multipliers is not None:
        mults = list(form.multipliers)
        mults[idx] = mults[idx] * c
        return SkewHermForm(form.alg, tuple(entries), base=form.base,
                            multipliers=tuple(mults))
    return SkewHermForm(form.alg, tuple(entries))


def twist_last_entry(form: SkewHermForm, c: Rational) -> SkewHermForm:
    """<lam1 q, ..., lam6 q> -> <lam1 q, ..., c lam6 q>.

    A bookkeeping move on rank 6 single-base forms: the written multiplier
    form changes its discriminant by c, which is the whole point of the
    repair step that calls this.  When c is the square of an element
    anticommuting with q the adjoint involution itself does not move.
    """
    cf = as_fraction(c)
    if cf == 0:
        raise DomainError("twist scalar must be nonzero")
    if form.base is None:
        raise DomainError("twist needs the base * multipliers shape")
    if form.rank != 6:
        raise DomainError("twist is a rank 6 move")
    mults = form.multipliers[:-1] + (form.multipliers[-1] * cf,)
    entries = form.entries[:-1] + (form.entries[-1] * cf,)
    return SkewHermForm(form.alg, entries, base=form.base, multipliers=mults)


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
        assert sol is not None, (x, basis)
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
        assert conj == adj, (q, lm)
        block = _linalg.mat_mul(_S, lm)
        assert block[0][1] == block[1][0], q
        for r in range(2):
            for c in range(2):
                gram[2 * t + r][2 * t + c] = block[r][c]
    diag, _ = _linalg.congruence_diagonalize(gram)
    assert all(x != 0 for x in diag)
    return QuadForm(tuple(diag))


# --- serialization ---------------------------------------------------------

def to_json(form: SkewHermForm) -> dict:
    out = {
        "alg": algebra_to_json(form.alg),
        "entries": [elem_to_json(q) for q in form.entries],
    }
    if form.multipliers is not None:
        out["multipliers"] = [str(m) for m in form.multipliers]
    return out


def from_json(data: dict) -> SkewHermForm:
    if not isinstance(data, dict) or "alg" not in data or "entries" not in data:
        raise DomainError("skew-hermitian JSON needs 'alg' and 'entries'")
    alg = algebra_from_json(data["alg"])
    if not isinstance(data["entries"], list) or not data["entries"]:
        raise DomainError("entries must be a nonempty list")
    entries = tuple(elem_from_json(q, expected=alg) for q in data["entries"])
    if "multipliers" in data:
        try:
            mults = tuple(rational_from_json(m) for m in data["multipliers"])
        except (ValueError, ZeroDivisionError) as exc:
            raise DomainError(f"bad multiplier: {exc}") from None
        if len(mults) != len(entries) or any(m == 0 for m in mults):
            raise DomainError("one nonzero multiplier per entry")
        base = entries[0] * (1 / mults[0])
        return SkewHermForm(alg, entries, base=base, multipliers=mults)
    return SkewHermForm(alg, entries)
