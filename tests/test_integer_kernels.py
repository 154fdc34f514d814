"""The integer quaternion, linear algebra and isotropy kernels against
Fraction formulas.

The references below are the textbook formulas written over Fraction, kept
here and nowhere in the package: every quaternion operation, the reduced
row echelon form with the kernel read off it, symmetric Gaussian
elimination, and the isotropic vector finished over Fraction (square roots
of e_i / s_i, each zero cleared to a primitive vector).  The package must
give the same values, the same serialized bytes, and must build no
Fraction on its hot path.
"""

import json
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt, lcm, prod
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import quadform
from wittforge.errors import BoundExceeded, DomainError
from wittforge.hermitian import skew_form, to_quadratic_form
from wittforge.invol12 import decompose_split12
from wittforge.qarith import REAL, _class_mul, _hilbert_core, _legendre
from wittforge.quadform import (diagonal, direct_sum, hyperbolic,
                                is_hyperbolic_over, is_isotropic,
                                isotropic_vector, pfister, represent_value,
                                scale, tensor, witt_decompose)
from wittforge.quat import Quat, _orthogonal_pure, algebra, anticommutant, \
    elem_to_json, pure, pure_with_square
from wittforge.sampling import random_skew_form, split_algebra
from split12 import split12_with_primes

small = st.integers(min_value=-7, max_value=7)
dens = st.integers(min_value=1, max_value=6)
rationals = st.builds(Fraction, small, dens)
params = rationals.filter(lambda f: f != 0)


def elements(alg):
    return st.tuples(rationals, rationals, rationals, rationals).map(
        lambda c: alg.element(*c))


# --- Fraction references ----------------------------------------------------

def ref_mul(a, b, p, q):
    t1, x1, y1, z1 = p
    t2, x2, y2, z2 = q
    return (t1 * t2 + a * x1 * x2 + b * y1 * y2 - a * b * z1 * z2,
            t1 * x2 + x1 * t2 - b * y1 * z2 + b * z1 * y2,
            t1 * y2 + y1 * t2 + a * x1 * z2 - a * z1 * x2,
            t1 * z2 + z1 * t2 + x1 * y2 - y1 * x2)


def ref_nrd(a, b, p):
    t, x, y, z = p
    return t * t - a * x * x - b * y * y + a * b * z * z


def ref_conjugate(p):
    t, x, y, z = p
    return (t, -x, -y, -z)


def ref_rref(m):
    m = [[Fraction(x) for x in row] for row in m]
    rows, cols = len(m), len(m[0])
    pivots, r = [], 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        m[r] = [x / m[r][c] for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def ref_kernel(m):
    cols = len(m[0])
    red, pivots = ref_rref(m)
    out = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        out.append(v)
    return out


def ref_congruence_diagonal(g):
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]

    def add_col(dst, src, f):
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for i in range(n):
            a[dst][i] += f * a[src][i]

    def swap_col(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]

    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                swap_col(k, swap)
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue
                add_col(k, off, Fraction(1))
        for j in range(k + 1, n):
            if a[k][j] != 0:
                add_col(j, k, -a[k][j] / a[k][k])
    return [a[i][i] for i in range(n)]


# --- quaternions -------------------------------------------------------------

def _normalized(q):
    return (q.den > 0 and all(type(n) is int for n in (*q.num, q.den))
            and gcd(*q.num, q.den) == 1)


@given(st.data(), params, params)
@settings(max_examples=150, deadline=None)
def test_quaternion_operations_match_fraction_formulas(data, a, b):
    alg = algebra(a, b)
    p, q = data.draw(elements(alg)), data.draw(elements(alg))
    c = data.draw(rationals)
    n = data.draw(small)
    pc, qc = p.coeffs, q.coeffs
    assert (p * q).coeffs == ref_mul(a, b, pc, qc)
    assert (p + q).coeffs == tuple(x + y for x, y in zip(pc, qc))
    assert (p - q).coeffs == tuple(x - y for x, y in zip(pc, qc))
    assert (-p).coeffs == tuple(-x for x in pc)
    assert (p * c).coeffs == (c * p).coeffs == tuple(c * x for x in pc)
    assert (p * n).coeffs == (n * p).coeffs == tuple(n * x for x in pc)
    assert p.conjugate().coeffs == ref_conjugate(pc)
    assert p.nrd == ref_nrd(a, b, pc)
    norm = ref_nrd(a, b, pc)
    if norm != 0:
        assert p.inverse().coeffs == tuple(x / norm
                                           for x in ref_conjugate(pc))
    else:
        with pytest.raises(DomainError):
            p.inverse()
    for r in (p, q, p * q, p + q, p - q, -p, p * c, p.conjugate()):
        assert _normalized(r)
        # the same element written any other way is the same record
        assert r == alg.element(*r.coeffs) and hash(r) == hash(
            alg.element(*r.coeffs))


@given(st.data(), params, params)
@settings(max_examples=60, deadline=None)
def test_elem_to_json_bytes_are_unchanged(data, a, b):
    alg = algebra(a, b)
    q = data.draw(elements(alg))
    want = {"alg": {"a": str(a), "b": str(b)},
            "coords": [str(x) for x in q.coeffs]}
    assert json.dumps(elem_to_json(q), sort_keys=True) == json.dumps(
        want, sort_keys=True)
    assert elem_to_json(q * q)["coords"] == [
        str(x) for x in ref_mul(a, b, q.coeffs, q.coeffs)]


def test_quaternion_constructor_normalizes_and_refuses():
    h = algebra(Fraction(1, 2), -3)
    q = Quat(h, (2, -4, 0, 6), -4)
    assert (q.num, q.den) == ((-1, 2, 0, -3), 2)
    assert q == h.element(Fraction(-1, 2), 1, 0, Fraction(-3, 2))
    for num, den in (((1, 2, 3), 1), ((1, 2, 3, 4), 0),
                     ((1, 2, 3, Fraction(1, 2)), 1), ((1, 2, 3, True), 1)):
        with pytest.raises(DomainError):
            Quat(h, num, den)
    with pytest.raises(DomainError):
        h.element(1, 2, 3, 0.5)
    with pytest.raises(DomainError):
        h.one() * 1.5


# --- orthogonal pures and linear algebra ---------------------------------------

@given(st.data(), params, params)
@settings(max_examples=300, deadline=None)
def test_orthogonal_pure_is_read_off_the_fraction_kernel(data, a, b):
    # the first invertible of w1, w2, w1 + w2, w1 - w2, for w1, w2 the
    # first two kernel vectors of the row (-a x, -b y, ab z); zeros are
    # drawn often, so scalars and pures on a coordinate axis come up
    alg = algebra(a, b)
    coord = st.one_of(st.just(0), rationals)
    p = alg.element(*(data.draw(coord) for _ in range(4)))
    _, x, y, z = p.coeffs
    w1, w2, *_ = ref_kernel([[-a * x, -b * y, a * b * z]])
    candidates = [pure(alg, *w) for w in (
        w1, w2, [s + t for s, t in zip(w1, w2)],
        [s - t for s, t in zip(w1, w2)])]
    want = next(u for u in candidates if u.is_invertible())
    assert _orthogonal_pure(alg, p) == want


# --- the hermitian transport against the block Gram matrix -------------------

def ref_transport_gram(form):
    # per entry q, the block of S(x, q y) on (f, g) = (1 + mu, nu f), each
    # coefficient the ratio of conj(x) q y to w = conj(f) g at a coordinate
    # where w is nonzero; the blocks sit on the diagonal of one matrix
    alg = form.alg
    a, b = alg.a, alg.b
    mu = pure_with_square(alg, 1)
    f = (Fraction(1), *mu.coeffs[1:])
    g = ref_mul(a, b, anticommutant(alg, mu).coeffs, f)
    w = ref_mul(a, b, ref_conjugate(f), g)
    k = next(i for i, c in enumerate(w) if c)
    n = form.rank
    gram = [[Fraction(0)] * (2 * n) for _ in range(2 * n)]
    for t, q in enumerate(form.entries):
        for r, x in enumerate((f, g)):
            left = ref_mul(a, b, ref_conjugate(x), q.coeffs)
            for c, y in enumerate((f, g)):
                gram[2 * t + r][2 * t + c] = ref_mul(a, b, left, y)[k] / w[k]
    return gram


def _transport_against_the_elimination(form):
    # the closed form gives the elimination's diagonal as a multiset, and
    # as a list unless a block has a = c = 0, where the elimination swaps
    # in a later block's diagonal entry; returns whether they differ
    gram = ref_transport_gram(form)
    want = ref_congruence_diagonal(gram)
    got = list(to_quadratic_form(form).entries)
    assert sorted(got) == sorted(want)
    hollow = any(gram[i][i] == gram[i + 1][i + 1] == 0
                 for i in range(0, len(gram), 2))
    assert got == want or hollow
    return got != want


def test_transport_matches_the_fraction_elimination():
    reordered = sum(
        _transport_against_the_elimination(
            random_skew_form(rng, split_algebra(rng), 1 + seed % 3))
        for seed in range(1000) for rng in [Random(seed)])
    assert 0 < reordered < 10


def test_transport_through_zero_diagonals():
    # over (3, 6), on (f, g): (-1, 2, 1) has the block [[0, -3], [-3, -36]],
    # (-1, 2, -1) has [[2, -3], [-3, 0]], and (1, 1, 0) has [[0, -3],
    # [-3, 0]], which gives <2b, -b/2> and no pivot from a later block
    h = algebra(3, 6)
    c_only, a_only, hollow = (pure(h, -1, 2, 1), pure(h, -1, 2, -1),
                              pure(h, 1, 1, 0))
    for entries, want in (
            ((c_only,), ["-36", "1/4"]),
            ((a_only,), ["2", "-9/2"]),
            ((hollow,), ["-6", "3/2"]),
            ((c_only, hollow), ["-36", "1/4", "-6", "3/2"]),
            ((hollow, a_only), ["-6", "3/2", "2", "-9/2"]),
            ((hollow, hollow, c_only), ["-6", "3/2", "-6", "3/2",
                                        "-36", "1/4"])):
        form = skew_form(h, *entries)
        assert [str(x) for x in to_quadratic_form(form).entries] == want
        reordered = _transport_against_the_elimination(form)
        assert reordered == (entries[0] is hollow and len(entries) > 1)


# --- no Fraction on the hot path ------------------------------------------------

def test_hot_path_builds_no_fraction(monkeypatch):
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    h = algebra(-3, 7)
    p, q = h.element(1, 2, -3, 4), h.element(-2, 0, 5, 1)
    monkeypatch.setattr(Fraction, "__new__", counting)
    product = p * q
    norm = product.nrd
    inverse = product.inverse()
    monkeypatch.undo()
    assert built == []
    assert norm == p.nrd * q.nrd
    assert inverse * product == h.one()


def test_integral_forms_build_no_fraction(monkeypatch):
    # int entries stay ints through the form's record, its Witt kernel and
    # that kernel's check, hyperbolicity over Q(sqrt d), and decompose12
    # with the isometry check of its reconstruction
    built = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    rng = Random(30)
    monkeypatch.setattr(Fraction, "__new__", counting)
    forms = [diagonal(*(rng.choice((-1, 1)) * rng.randint(1, 30)
                        for _ in range(dim))) for dim in (2, 3, 4, 5, 12, 50)]
    forms += [diagonal(-3, -5, -7, -11), direct_sum(diagonal(6, 10),
                                                    hyperbolic(2))]
    records = [q.invariants for q in forms]
    kernels = [witt_decompose(q) for q in forms]
    phi = diagonal(2, -3, 5)
    hyper = (is_hyperbolic_over(tensor(phi, pfister(7)), 7),
             is_hyperbolic_over(scale(-2, tensor(phi, pfister(-3))), -3),
             is_hyperbolic_over(diagonal(1, 2, 3, 5), 7))
    decs = [decompose_split12(split12_with_primes(Random(k), k))
            for k in (2, 8, 12)]
    monkeypatch.undo()
    assert built == []
    assert len(records) == len(kernels) == len(forms)
    assert hyper == (True, True, False)
    assert all(type(a) is int for dec in decs for a in dec.alphas)


# --- isotropic vectors against the Fraction finish -----------------------------

def ref_sqrt_fraction(f):
    rn, rd = isqrt(f.numerator), isqrt(f.denominator)
    assert rn * rn == f.numerator and rd * rd == f.denominator, f
    return Fraction(rn, rd)


def ref_primitive(v):
    vs = list(v)
    den = lcm(*(x.denominator for x in vs))
    ints = [int(x * den) for x in vs]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g else tuple(ints)


@lru_cache(maxsize=None)
def ref_odd_primes(n):
    # the primes of odd exponent in n > 0, by trial division
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e % 2:
            out.append(p)
        p += 1
    return out + [n] if n > 1 else out


def ref_by_height(limit):
    # every signed squarefree c up to limit, n before -n, by height, with
    # the primes of c
    for n in range(1, limit + 1):
        primes = ref_odd_primes(n)
        if prod(primes) == n:
            yield n, primes
            yield -n, primes


def ref_represents(a, b, places):
    # (c, -ab)_v = (a, b)_v at every place, the primes of c outside the
    # places first, then the listed places
    m = _class_mul(-a, b)
    targets = [(v, _hilbert_core(a, b, v)) for v in places]
    return lambda c, primes: (all(p in places or _legendre(m, p) == 1
                                  for p in primes)
                              and all(_hilbert_core(c, m, v) == t
                                      for v, t in targets))


def ref_ternary_zero(s, places):
    al, be = _class_mul(-s[0], s[2]), _class_mul(-s[1], s[2])
    pa, pb = ([p for p in places if p != REAL and x % p == 0]
              for x in (al, be))
    u, v = gcd(s[0], s[2]), gcd(s[1], s[2])
    x, y, z = quadform._lagrange_descent(al, be, pa, pb)
    return ref_primitive((Fraction(y, u), Fraction(z, v), Fraction(x, s[2])))


def ref_int_isotropic(s, places, walks):
    short = quadform._pair_shortcut(s)
    if short is not None:
        return short
    if len(s) == 3:
        return ref_ternary_zero(s, places)
    rest = s[2:]
    if quadform._isotropic(rest, places):
        return (0, 0) + ref_int_isotropic(rest, places, walks)
    first = ref_represents(s[0], s[1], places)
    for c, primes in ref_by_height(quadform._SPLIT_BOUND):
        if not first(c, primes):
            continue
        at = [*places, *(p for p in primes if p not in places)]
        if len(rest) == 2:
            ok = ref_represents(-rest[0], -rest[1], places)(c, primes)
        else:
            ok = quadform._isotropic((*rest, c), at)
        if not ok:
            continue
        walks.append(c)
        x, y, w = ref_ternary_zero([s[0], s[1], -c], at)
        sub = ref_int_isotropic(rest + [c], at, walks)
        t = sub[-1]
        return ref_primitive([Fraction(x * t, w), Fraction(y * t, w)]
                             + [Fraction(z) for z in sub[:-1]])
    raise BoundExceeded("splitting value")


def ref_isotropic_vector(q, walks):
    if not is_isotropic(q):
        raise DomainError("anisotropic")
    s = list(q.square_classes)
    t = [ref_sqrt_fraction(Fraction(e) / sf) for e, sf in zip(q.entries, s)]
    y = ref_int_isotropic(s, q.places, walks)
    out = tuple(Fraction(x) for x in ref_primitive(
        Fraction(yi) / ti for yi, ti in zip(y, t)))
    assert q(out) == 0 and any(out)
    return out


def ref_represent_value(q, c, walks):
    try:
        v = ref_isotropic_vector(direct_sum(q, diagonal(-c)), walks)
    except DomainError:
        raise DomainError("not represented") from None
    t = v[-1]
    if t != 0:
        out = tuple(x / t for x in v[:-1])
    else:
        w = v[:-1]
        k = next(i for i, x in enumerate(w) if x != 0)
        dk = q.entries[k]
        x = (c - dk) / (2 * dk * w[k])
        out = tuple(x * wi + (1 if i == k else 0) for i, wi in enumerate(w))
    assert q(out) == c
    return out


def _outcome(call, *args):
    try:
        return call(*args)
    except (BoundExceeded, DomainError) as exc:
        return type(exc)


def test_isotropic_vectors_match_the_fraction_finish():
    # seeded isotropic diagonals with fractional entries, dims 3 to 8:
    # the integer finish, stitch and ternary scaling give the very vectors
    # the Fraction ones gave, and represent_value the very same values
    rng = Random(2025)
    walks, forms = [], 0
    while forms < 2000:
        entries = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                            rng.randint(1, 9))
                   for _ in range(rng.randint(3, 8))]
        q = diagonal(*entries)
        if not is_isotropic(q):
            continue
        forms += 1
        assert (_outcome(isotropic_vector, q)
                == _outcome(ref_isotropic_vector, q, walks)), q
        c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 30),
                     rng.randint(1, 5))
        assert (_outcome(represent_value, q, c)
                == _outcome(ref_represent_value, q, c, [])), (q, c)
    # the splitting walk and its stitch are among the cases compared
    assert len(walks) > 1000
