"""Budgeted end-to-end property suite.

Desk-scale checks, one test per property, each with a fixed seed and a
wall-clock budget asserted at the end.  The tests from the large prime
entry on are scaling guards: inputs whose cost grew with the size of an
entry, the dimension or the number of primes until they hung, overflowed
the stack or ran out of the factoring budget.  Run with -v
for one pass/fail line per property; -s additionally shows the measured
times.  These are the checks a release must pass; the narrower unit files
pin implementation details instead.
"""

import io
import itertools
import json
import time
from contextlib import contextmanager, redirect_stdout
from random import Random

from wittforge import invol12, sampling
from wittforge.cli import main as cli_main
from wittforge.cohomology import ZERO, brauer_from_symbol
from wittforge.hermitian import disc_adjoint, skew_form, to_quadratic_form
from wittforge.invol12 import (
    M3H,
    ProductPresentation,
    QuatInvol,
    Split6,
    decompose_split12,
    exists_involution,
    f3_via_norms,
    f3_via_symbol,
    has_trivial_invariants,
    is_aligned,
)
from wittforge.qarith import ramified_places, squarefree_part
from wittforge.quadform import (
    clifford_class,
    diagonal,
    direct_sum,
    e1,
    e2,
    is_isotropic,
    isometric,
    neg,
    pfister,
    scale,
    signature,
    tensor,
    witt_decompose,
    witt_equivalent,
)
from wittforge.quat import algebra, pure_with_square
from wittforge.ramlattice import analyze_obstruction, obstruction_check

from slots import change_of_base_data, quaternion_symbol
from split12 import split12_with_primes


@contextmanager
def _budget(name: str, seconds: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    print(f"{name}: pass in {elapsed:.2f}s (budget {seconds:.0f}s)")
    assert elapsed < seconds, f"{name}: {elapsed:.2f}s over {seconds:.0f}s"


def test_hilbert_reciprocity_even_ramification():
    rng = Random(101)
    with _budget("hilbert reciprocity", 10):
        for _ in range(1000):
            a = sampling.nonzero_int(rng, 10 ** 4)
            b = sampling.nonzero_int(rng, 10 ** 4)
            assert len(ramified_places(a, b)) % 2 == 0, (a, b)


def test_twofold_pfister_witt_identity():
    rng = Random(102)
    with _budget("pfister witt identity", 30):
        for _ in range(200):
            lam, mu, nu = (sampling.square_class(rng) for _ in range(3))
            lhs = pfister(lam, mu * nu)
            rhs = direct_sum(pfister(lam, mu), scale(mu, pfister(lam, nu)))
            assert witt_equivalent(lhs, rhs), (lam, mu, nu)


def test_tensor_decomposition_round_trip():
    rng = Random(103)
    with _budget("decomposition round trip", 300):
        for _ in range(50):
            psi, _, _ = sampling.split12_instance(rng, coeff_bound=50)
            dec = decompose_split12(psi)
            b1, b2, b3 = dec.betas
            assert squarefree_part(b1 * b2 * b3) == 1, dec
            assert isometric(dec.reconstruction(), psi), psi


def _a_split_case():
    h = algebra(-1, -1)
    return ProductPresentation(M3H(skew_form(h, h.i(), h.j(), h.k())),
                               QuatInvol(h, h.i()))


def _a0_split_case():
    h = algebra(-1, -1)
    return ProductPresentation(Split6(diagonal(1, 1, 1, 1, 1, 1)),
                               QuatInvol(h, h.i()))


def _a0_split_by_own_disc_case():
    hp = algebra(-3, -1)  # ramified {real, 3}, so split by Q(sqrt(-3))
    a0 = M3H(skew_form(hp, hp.i(), hp.j(), hp.j()))
    h = algebra(*quaternion_symbol(brauer_from_symbol(2, -3)))
    return ProductPresentation(a0, QuatInvol(h, pure_with_square(h, 2)))


def test_f3_routes_agree_and_vanish_on_degenerate_cases():
    rng = Random(104)
    with _budget("f3 route agreement", 120):
        seen = 0
        for build in (_a_split_case, _a0_split_case,
                      _a0_split_by_own_disc_case):
            p = build()
            assert has_trivial_invariants(p)
            assert f3_via_norms(p).bit == 0
            assert f3_via_symbol(p).bit == 0
            seen += 1
        while seen < 20:
            h1 = sampling.random_algebra(rng)
            h2 = sampling.random_algebra(rng)
            outcome = exists_involution(h1, h2)
            assert outcome.status == "witness", (h1, h2)
            p = outcome.presentation
            assert f3_via_norms(p) == f3_via_symbol(p), (h1, h2)
            seen += 1


def test_norm_form_witt_identities():
    rng = Random(105)
    with _budget("norm form identities", 60):
        # difference of norm forms against its closed Pfister form, for
        # quaternions H = (c, e), H' = (c, e'), Q = (c, ee')
        for _ in range(25):
            c, e, ep, d = (sampling.square_class(rng) for _ in range(4))
            lhs = direct_sum(pfister(c, e * ep), neg(pfister(c, e)),
                             neg(scale(d, pfister(c, ep))))
            rhs = scale(e, pfister(c, ep, d * e))
            assert witt_equivalent(lhs, rhs), (c, e, ep, d)
        # aggregate of the six change-of-base norm forms on hermitian
        # presentations: sum n_H_i + sum n_Q_i against
        # <a1,a2,a3> n_H + <d,d,d> n_H' + sum <<-1, a_i, d>>
        for _ in range(25):
            h1 = sampling.random_algebra(rng)
            h2 = sampling.random_algebra(rng)
            p = exists_involution(h1, h2).presentation
            assert is_aligned(p)
            base, d0, d, data = change_of_base_data(p)
            n_h = pfister(d, d0)
            n_hp = base.norm_form
            lhs = direct_sum(*(pfister(a * d0, d) for a, _ in data),
                             *(pfister(a, b * d) for a, b in data))
            rhs = direct_sum(*(scale(a, n_h) for a, _ in data),
                             scale(d, n_hp), scale(d, n_hp), scale(d, n_hp),
                             *(pfister(-1, a, d) for a, _ in data))
            assert witt_equivalent(lhs, rhs), (h1, h2)


def test_split_case_clifford_oracle():
    rng = Random(106)
    with _budget("split case oracle", 60):
        done = 0
        while done < 30:
            phi = sampling.random_form(rng, 6, bound=6)
            h = sampling.split_algebra(rng)
            i_elem = sampling.pure_invertible(rng, h)
            p = ProductPresentation(Split6(phi), QuatInvol(h, i_elem))
            psi = tensor(phi, pfister(p.d))
            assert e1(psi) == 1
            assert p.disc_symbol == e2(psi), (phi, h, i_elem)
            assert has_trivial_invariants(p) == e2(psi).is_zero()
            done += 1


def _rank2_subspaces():
    vecs = list(itertools.product((0, 1), repeat=4))[1:]
    spaces = set()
    for u, v in itertools.combinations(vecs, 2):
        w = tuple((a + b) % 2 for a, b in zip(u, v))
        spaces.add(frozenset({u, v, w}))
    return [s | {(0, 0, 0, 0)} for s in spaces]


def test_totally_ramified_pair_obstruction():
    slots = (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))
    with _budget("valuation obstruction", 1):
        assert obstruction_check(slots)
        report = analyze_obstruction(slots)
        assert report.obstructed and not report.split_factor
        # ordered pairs of complementary rank 2 subgroups of (Z/2)^4,
        # counted independently of the lattice enumeration
        spaces = _rank2_subspaces()
        brute = sum(1 for s, t in itertools.product(spaces, repeat=2)
                    if s & t == {(0, 0, 0, 0)})
        assert len(report.checks) == brute == 560


def test_existence_witnesses_have_trivial_invariants():
    rng = Random(108)
    with _budget("existence witnesses", 60):
        for _ in range(20):
            h1 = sampling.random_algebra(rng)
            h2 = sampling.random_algebra(rng)
            outcome = exists_involution(h1, h2)
            assert outcome.status == "witness", (h1, h2)
            assert has_trivial_invariants(outcome.presentation), (h1, h2)


def test_hermitian_discriminant_transport():
    rng = Random(109)
    with _budget("hermitian discriminant", 60):
        for _ in range(20):
            alg = sampling.split_algebra(rng)
            form = sampling.random_skew_form(rng, alg, rng.randrange(1, 4))
            quad = to_quadratic_form(form)
            assert disc_adjoint(form) == e1(quad), form


def _cli_report(tmp_path, argv, payload) -> tuple[int, dict | None]:
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(argv + [str(path)])
    return code, json.loads(out.getvalue()) if code == 0 else None


def test_invariants_of_a_large_prime_entry(tmp_path):
    # 2^61 - 1 is past trial division; Miller-Rabin settles it
    with _budget("invariants with entry 2^61 - 1", 5):
        code, report = _cli_report(
            tmp_path, ["qf", "invariants"],
            {"entries": ["2305843009213693951", "1"]})
    assert code == 0
    assert report["outputs"]["e1"] == "-2305843009213693951"
    assert report["outputs"]["witt_index"] == 0


def test_invariants_of_a_dim_1000_definite_form(tmp_path):
    with _budget("invariants at dim 1000", 5):
        code, report = _cli_report(tmp_path, ["qf", "invariants"],
                                   {"entries": ["1"] * 1000})
    assert code == 0
    outputs = report["outputs"]
    assert outputs["dim"] == outputs["signature"] == 1000
    assert outputs["witt_index"] == 0
    assert outputs["e1"] == "1" and outputs["e2"] == [] and outputs["e3"] == 1


def test_decompose_split12_with_25_primes():
    rng = Random(110)
    for _ in range(8):
        psi = split12_with_primes(rng, 25)
        with _budget("decompose12 at 25 primes", 5):
            dec = decompose_split12(psi)
        assert dec.d == -1, psi
        assert isometric(dec.reconstruction(), psi), psi


# 16-prime inputs on which the earlier division search ran out of budget
# ("no anisotropic kernel found") although the decomposition exists
SPLIT12_ONCE_EXHAUSTED = (
    [-13547, -5513629, -3485, -8681135, -273, 276777501, 16893109,
     6875495363, 4345795, 10825375345, 340431, -345141543747],
    [-14147, 1570317, 41287, 5986615, 3289, 52936455, 7455469, -827557059,
     -21758249, -3154946105, -1733303, -27897511785],
    [-33511, 9617657, 21199, -1377935, 3021, -56356755, -13638977,
     3914386399, 8627993, -560819545, 1229547, -22937199285],
)


def test_decompose_split12_once_exhausted_inputs():
    for entries in SPLIT12_ONCE_EXHAUSTED:
        psi = diagonal(*entries)
        with _budget("decompose12, once exhausted at 16 primes", 1):
            dec = decompose_split12(psi)
        assert dec.d == -1, entries
        assert isometric(dec.reconstruction(), psi), entries


def test_hasse_class_with_entries_near_a_million():
    # products of two or more entries are past the trial division budget,
    # so the running product in the n - 1 symbol sum must never be factored
    def pairwise(q):
        return sum((brauer_from_symbol(a, b)
                    for a, b in itertools.combinations(q.entries, 2)), ZERO)

    two = diagonal(1000003, 1000033, 1)
    six = diagonal(999983, -999979, 999961, 999953, -999931, 999917)
    with _budget("Hasse class, entries near 10^6", 2):
        assert two.invariants.hasse == brauer_from_symbol(1000003, 1000033)
        # at dim 6 the Clifford correction is (-1, -1), free of the det
        for q in (direct_sum(two, diagonal(1, 1, -1)), six):
            assert q.invariants.hasse == pairwise(q)
            assert e2(q) == pairwise(q) + brauer_from_symbol(-1, -1)


def test_clifford_class_and_isotropy_with_entries_near_a_million():
    # the determinant class p q is past the trial division budget, so the
    # dimension correction and the local criteria must take it unfactored
    p, q = 1000003, 1000033
    with _budget("Clifford class and isotropy, det near 10^12", 2):
        for c in (1, -1):
            form = diagonal(p, q, c)
            # dim 3: the correction (-1, -pqc) split by bilinearity
            correction = sum((brauer_from_symbol(-1, x)
                              for x in (-c, p, q)), ZERO)
            assert clifford_class(form) == form.invariants.hasse + correction
            # <p, q, c> is isotropic iff (-pc, -qc) splits
            assert is_isotropic(form) == brauer_from_symbol(
                -p * c, -q * c).is_zero()
        assert is_isotropic(diagonal(p, q, 1, -1))
        assert not is_isotropic(diagonal(p, q, 1, 1))
        assert clifford_class(diagonal(p, q, 1, 1)) == (
            diagonal(p, q, 1, 1).invariants.hasse
            + sum((brauer_from_symbol(-1, x) for x in (-1, p, q)), ZERO))


# forms on which `qf invariants` once ran out of budget building a Witt
# kernel it only needed the dimension of, with their Witt indices
ONCE_EXHAUSTED_INVARIANTS = (
    # the kernel search factored entries that are products of two primes
    # above 10^6
    (["1000003", "1000033", "1"], 0),
    # the kernel search needed a quaternion symbol ramified at 14 places
    ([-69, -164, 178, -197, -22, -58, 40, -26, -82, 49, 85, -163, 17, -177,
      -2, 87, -112, 52, -70, -33, -160, 137, 106, 161, -110, 128, -24, -195,
      2, -3, -122, 42, 36, -97, 87, 162, 21, 175, -136, -120, -197, -121,
      104, 93, 199, 18, -171, 79, -89, 999983], 23),
    ([50, 82, -166, -144, -124, -143, 92, -28, 69, -149], 4),
    ([-25, 71, 188, 173, -125, 20, 111, -4, 91, -74, -192, -154], 5),
)


def test_invariants_once_exhausted_by_the_kernel_search(tmp_path):
    for entries, index in ONCE_EXHAUSTED_INVARIANTS:
        with _budget("invariants, once exhausted", 2):
            code, report = _cli_report(
                tmp_path, ["qf", "invariants"],
                {"entries": [str(e) for e in entries]})
        assert code == 0, entries
        assert report["outputs"]["witt_index"] == index, entries


# a negative definite quaternary kernel: the kernel search once split off
# <1> first, which this kernel does not represent, and ran out of budget
# on the quaternion symbol of the 14-place class it then asked for
NEGATIVE_DEFINITE_KERNEL = (
    -53, 44, -149, -133, -150, 187, 130, -96, -50, -37, -28, 16, -67, -190,
    -21, -69, -56, -176, 166, 189, -12, -36, 193, 108, 57, 43, -53, 116, 181,
    -185, 11, -185, 23, 65, 195, -150, -23, 40, 160, -176, 75, 89, -90, 165,
    -154, 94, -53, -113, 23, -200)


def test_witt_decompose_with_a_negative_definite_kernel():
    with _budget("Witt kernel, negative definite quaternary", 2):
        wd = witt_decompose(diagonal(*NEGATIVE_DEFINITE_KERNEL))
    assert (wd.kernel.dim, wd.index) == (4, 23)
    assert signature(wd.kernel) == -4

def test_invariants_build_no_kernel(tmp_path, monkeypatch):
    # the Witt index is read off the invariants: no kernel is searched for
    def refuse(*args):
        raise AssertionError("qf invariants searched for a kernel")

    for name in ("witt_decompose", "_anisotropic_rep"):
        monkeypatch.setattr(f"wittforge.quadform.{name}", refuse)
    code, report = _cli_report(tmp_path, ["qf", "invariants"],
                               {"entries": ["1", "1", "1", "7", "5"]})
    assert code == 0
    assert report["outputs"]["witt_index"] == 0


# pairs whose witness once left a prime-square cofactor past the trial
# division bound in factor (the survey workload's known defects)
PRIME_SQUARE_PAIRS = (((-1, -2), (-7, -15)), ((-2, 13), (-15, -7)),
                      ((-10, 15), (-13, -7)), ((15, -13), (6, 11)))


def test_existence_witnesses_through_prime_square_cofactors():
    with _budget("existence through prime-square cofactors", 5):
        for s1, s2 in PRIME_SQUARE_PAIRS:
            outcome = exists_involution(algebra(*s1), algebra(*s2))
            assert outcome.status == "witness", (s1, s2)
            assert has_trivial_invariants(outcome.presentation), (s1, s2)
