"""Degree 12 algebras with orthogonal involution, handled by presentation.

Everything here works with tensor decompositions (A0, sigma0) x (H, rho)
where the degree 6 factor is either the adjoint of a 6-dimensional quadratic
form (split case) or of a rank 3 skew-hermitian form over a quaternion
algebra, and rho = Int(i) o conj on H.  Writing d = i^2 and d0 for the
degree 6 discriminant, the two Clifford components of the product are
[H] + (d, d0) and [A0] + (d, d0); all invariant computations below reduce
to symbol arithmetic in those terms, so no 12x12 matrices ever appear.

The f3 invariant of a presentation with trivial discriminant and Clifford
invariant is computed along two independent routes, through the Arason
invariant of a difference of norm forms and as a cup product over a common
quadratic splitting field, and the two must agree.
"""

from functools import cached_property

from ._record import Record, set_field
from .cohomology import (
    ZERO,
    BrauerClass,
    H3Class,
    brauer_from_symbol,
    cup_h3,
)
from .errors import BoundExceeded, DomainError, require
from .hermitian import SkewHermForm, disc_adjoint, skew_form
from .hermitian import from_json as herm_from_json
from .hermitian import to_json as herm_to_json
from .qarith import REAL, Rational, square_class_product, squarefree_part
from .quadform import (
    QuadForm,
    direct_sum,
    e1,
    e2,
    isometric,
    pfister,
    scale,
    signature,
    tensor,
)
from .quadform import from_json as quad_from_json
from .quadform import to_json as quad_to_json
from .quat import (
    Quat,
    QuaternionAlgebra,
    algebra_from_json,
    algebra_to_json,
    anticommutant,
    common_value_witness,
    elem_from_json,
    elem_to_json,
    three_pure_product,
)

__all__ = ["ExistsOutcome", "M3H", "PfisterDecomposition",
           "ProductPresentation", "QuatInvol", "Split6",
           "additive_decomposition", "decompose_split12",
           "decomposition_group", "exists_involution", "f3_via_norms",
           "f3_via_symbol", "has_trivial_invariants", "is_aligned",
           "presentation_from_json", "presentation_to_json"]


class Split6(Record):
    """Adjoint of a 6-dimensional quadratic form; the split degree 6 case."""

    form: QuadForm

    def __init__(self, form: QuadForm):
        if form.dim != 6:
            raise DomainError("the split description needs a dim 6 form")
        set_field(self, "form", form)

    brauer = ZERO

    def d0(self) -> int:
        return e1(self.form)


class M3H(Record):
    """Adjoint of a rank 3 skew-hermitian form over a quaternion algebra."""

    h: SkewHermForm

    def __init__(self, h: SkewHermForm):
        if h.rank != 3:
            raise DomainError("the hermitian description needs rank 3")
        set_field(self, "h", h)

    def d0(self) -> int:
        return disc_adjoint(self.h)

    @property
    def brauer(self) -> BrauerClass:
        return self.h.alg.brauer


Deg6Invol = Split6 | M3H


class QuatInvol(Record):
    """rho = Int(i_elem) o conj on H; its discriminant is d = i_elem^2."""

    alg: QuaternionAlgebra
    i_elem: Quat

    def __init__(self, alg: QuaternionAlgebra, i_elem: Quat):
        if i_elem.alg != alg:
            raise DomainError("i_elem from a different algebra")
        if not i_elem.is_pure() or not i_elem.is_invertible():
            raise DomainError("i_elem must be pure and invertible")
        set_field(self, "alg", alg)
        set_field(self, "i_elem", i_elem)

    def d(self) -> int:
        return squarefree_part(self.i_elem.square_scalar())


class ProductPresentation(Record):
    """(A0, sigma0) x (H, rho).  d0, d and (d, d0) are computed on first
    read and kept."""

    a0: Deg6Invol
    hrho: QuatInvol

    def __init__(self, a0: Deg6Invol, hrho: QuatInvol):
        set_field(self, "a0", a0)
        set_field(self, "hrho", hrho)

    @cached_property
    def d0(self) -> int:
        return self.a0.d0()

    @cached_property
    def d(self) -> int:
        return self.hrho.d()

    def a_class(self) -> BrauerClass:
        return self.a0.brauer + self.hrho.alg.brauer

    @cached_property
    def disc_symbol(self) -> BrauerClass:
        return brauer_from_symbol(self.d, self.d0)


class PfisterDecomposition(Record):
    """psi = (<a1><<b1>> + <a2><<b2>> + <a3><<b3>>) x <<d>>, b1 b2 b3 = 1."""

    d: int
    alphas: tuple[Rational, Rational, Rational]
    betas: tuple[int, int, int]

    def __init__(self, d: int, alphas: tuple[Rational, Rational, Rational],
                 betas: tuple[int, int, int]):
        if square_class_product(*betas) != 1:
            raise DomainError("beta product must be a square")
        set_field(self, "d", d)
        set_field(self, "alphas", alphas)
        set_field(self, "betas", betas)

    def reconstruction(self) -> QuadForm:
        blocks = direct_sum(*(scale(a, pfister(b))
                              for a, b in zip(self.alphas, self.betas)))
        return tensor(blocks, pfister(self.d))


def has_trivial_invariants(p: ProductPresentation) -> bool:
    """Whether e1 and e2 of the product involution both vanish: (d, d0)
    must match the quaternion factor or the degree 6 factor."""
    sym = p.disc_symbol
    return sym == p.hrho.alg.brauer or sym == p.a0.brauer


def is_aligned(p: ProductPresentation) -> bool:
    """(d, d0) = [H]: the component the f3 formulas are written for."""
    return p.disc_symbol == p.hrho.alg.brauer


def _f3_domain(p: ProductPresentation) -> None:
    # f3 is written for (d, d0) = [H].  A split degree 6 factor with
    # (d, d0) = [A0] gets there by changing d0 alone: scaling one entry of
    # phi by c = u^2, for a pure u anticommuting with i_elem, leaves the
    # involution alone and moves the symbol to (d, c d0) = [H].  Neither
    # route reads d0, only the sign of d and whether [H], [A0] (= 0 here)
    # and [A] ramify at the real place, so both compute on p itself.
    if not has_trivial_invariants(p):
        raise DomainError("f3 needs trivial discriminant and Clifford "
                          "invariant")
    if not (is_aligned(p) or isinstance(p.a0, Split6)):
        raise DomainError("(d, d0) matches the degree 6 class and the "
                          "hermitian description cannot be repaired in place")


def decompose_split12(psi: QuadForm) -> PfisterDecomposition:
    """Split a 12-dim form with trivial e1, e2 into three scaled binary
    Pfister blocks times a common <<d>>, always with d = -1.

    Trivial e1 and e2 put psi in I^3, and over Q, I^3 is torsion-free and
    detected by the signature: psi = (sig/8) <<-1, -1, -1>> + hyperbolic
    planes with sig in {-8, 0, 8}.  So psi = tau x <<-1>> with
    tau = <1 x (3 + sig/4), -1 x (3 - sig/4)>, read off the signature with
    no search.  Paired in order, tau gives the three blocks, and the beta
    product -det(tau) is 1 because 3 - sig/4 is odd.  The reconstruction
    is checked against psi before it is returned.
    """
    if psi.dim != 12:
        raise DomainError("decomposition wants a dim 12 form")
    if e1(psi) != 1 or not e2(psi).is_zero():
        raise DomainError("decomposition wants trivial e1 and e2")
    d = -1
    pos = 3 + signature(psi) // 4
    tau = [1] * pos + [-1] * (6 - pos)
    alphas = tuple(tau[i] for i in (0, 2, 4))
    betas = tuple(-tau[i] * tau[i + 1] for i in (0, 2, 4))
    dec = PfisterDecomposition(d, alphas, betas)
    require(isometric(dec.reconstruction(), psi), psi, dec)
    return dec


def additive_decomposition(p: ProductPresentation,
                           ) -> list[tuple[BrauerClass, BrauerClass]]:
    """The three (H_i, Q_i) = ((a_i d0, d), (a_i, b_i d)) symbol pairs of a
    hermitian <q1, q2, q3> over H', a_i = q_i^2, b_i any slot with
    (a_i, b_i) = [H'].  By bilinearity, with s_i = (a_i, d) read off the
    rational q_i^2, H_i = s_i + (d, d0) and Q_i = [H'] + s_i: no product
    class a_i d0 is built, and no b_i."""
    if not isinstance(p.a0, M3H):
        raise DomainError("additive decomposition needs a hermitian "
                          "degree 6 factor")
    base = p.a0.h.alg.brauer
    out = []
    for q in p.a0.h.entries:
        s_i = brauer_from_symbol(q.square_scalar(), p.d)
        out.append((s_i + p.disc_symbol, base + s_i))
    return out


def decomposition_group(p: ProductPresentation) -> list[BrauerClass]:
    """The eight classes {0, [A], H_i, Q_i} attached to the additive
    decomposition, in a fixed order."""
    pairs = additive_decomposition(p)
    out = [ZERO, p.a_class()]
    for h_i, q_i in pairs:
        out.extend((h_i, q_i))
    return out


def f3_via_norms(p: ProductPresentation) -> H3Class:
    """f3 as the Arason invariant of n_Q - n_H - <d> n_{H'}, for Q a
    quaternion algebra of class [A].

    The difference form is 12-dimensional with trivial e1, and lands in
    I^3 because the three classes sum to zero.  Over Q, I^3 is detected by
    the signature, so its e3 is sig/8 mod 2.  A norm form <1, -a, -b, ab>
    has signature 4 where its algebra ramifies at the real place and 0
    elsewhere, so sig = 4 ([A]_R - [H]_R - sgn(d) [H']_R), read off the
    three classes with no algebra or form built.  [H'] is [A0], split for
    a split degree 6 factor.  That [A] agrees with [H] + [H'] at R, so
    that sig is a multiple of 8, is asserted rather than trusted.
    """
    _f3_domain(p)
    a_r, h_r, hp_r = (cls.is_ramified_at(REAL) for cls in
                      (p.a_class(), p.hrho.alg.brauer, p.a0.brauer))
    sig = 4 * (a_r - h_r - (1 if p.d > 0 else -1) * hp_r)
    require(sig % 8 == 0, p, sig)
    return H3Class(sig // 8 % 2)


def f3_via_symbol(p: ProductPresentation) -> H3Class:
    """f3 as the cup product (d e) . [Q] over a common splitting field.

    Take c a local nonsquare at every place where H, H' or Q ramifies, so
    Q(sqrt c) splits all three, and e with H = (c, e).  A cup with a
    Brauer class is its real component, so only the sign of e matters,
    and [H] settles it with no symbol to find.  If the real place is not
    among those places, Q and H' are unramified there and both cups vanish
    whatever e is.  If it is, c < 0, and (c, e) ramifies at the real place
    exactly when e < 0: so e < 0 exactly when H ramifies there.  The same
    cup against [H'] must give the same bit, and does, which is checked on
    every call.
    """
    _f3_domain(p)
    e = -1 if p.hrho.alg.brauer.is_ramified_at(REAL) else 1
    out = cup_h3(p.d * e, p.a_class())
    require(out == cup_h3(p.d * e, p.a0.brauer), p, e)
    return out


class ExistsOutcome(Record):
    """Result of the existence search: "witness" with a presentation, or
    "unknown" when the search ran past its budget.  Over Q a witness
    always exists (see `common_value_witness`)."""

    status: str   # "witness" | "unknown"
    presentation: ProductPresentation | None

    def __init__(self, status: str,
                 presentation: ProductPresentation | None = None):
        set_field(self, "status", status)
        set_field(self, "presentation", presentation)


def exists_involution(h1: QuaternionAlgebra,
                      h2: QuaternionAlgebra) -> ExistsOutcome:
    """Search for an orthogonal involution with trivial e1 and e2 on the
    degree 12 algebra M3(h1 x h2).

    A common nonzero value nrd(q) = -j^2 of the norm of h1 and the pure
    norm of h2 yields one: write q as a product of three pures for the
    hermitian side and turn j into the conjugation twist on the other.
    The construction gives (d, d0) = [H] exactly, so the witness is
    aligned, never merely trivial.  Checking that factors d = i_elem^2,
    which may run past the primality budget like the search itself: both
    give "unknown".
    """
    try:
        q, j = common_value_witness(h1, h2)
        q1, q2, q3 = three_pure_product(h1, q)
        i_elem = anticommutant(h2, j)
        pres = ProductPresentation(M3H(skew_form(h1, q1, q2, q3)),
                                   QuatInvol(h2, i_elem))
        aligned = is_aligned(pres)
    except BoundExceeded:
        return ExistsOutcome("unknown")
    require(aligned, h1, h2, pres)
    return ExistsOutcome("witness", pres)


# --- serialization ----------------------------------------------------------

def presentation_to_json(p: ProductPresentation) -> dict:
    if isinstance(p.a0, Split6):
        a0 = {"split": quad_to_json(p.a0.form)}
    else:
        a0 = {"m3h": herm_to_json(p.a0.h)}
    return {"a0": a0,
            "h": {"alg": algebra_to_json(p.hrho.alg),
                  "i": elem_to_json(p.hrho.i_elem)}}


def presentation_from_json(data) -> ProductPresentation:
    if not isinstance(data, dict) or "a0" not in data or "h" not in data:
        raise DomainError("presentation JSON needs 'a0' and 'h'")
    a0_data = data["a0"]
    if not isinstance(a0_data, dict) or len(a0_data) != 1:
        raise DomainError("a0 must be {'split': ...} or {'m3h': ...}")
    if "split" in a0_data:
        a0 = Split6(quad_from_json(a0_data["split"]))
    elif "m3h" in a0_data:
        a0 = M3H(herm_from_json(a0_data["m3h"]))
    else:
        raise DomainError("a0 must be {'split': ...} or {'m3h': ...}")
    h_data = data["h"]
    if not isinstance(h_data, dict) or "alg" not in h_data or "i" not in h_data:
        raise DomainError("h needs 'alg' and 'i'")
    alg = algebra_from_json(h_data["alg"])
    i_elem = elem_from_json(h_data["i"], expected=alg)
    return ProductPresentation(a0, QuatInvol(alg, i_elem))
