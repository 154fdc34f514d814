"""The integer quaternion and linear algebra kernels against Fraction
formulas.

The references below are the textbook formulas written over Fraction, kept
here and nowhere in the package: every quaternion operation, the reduced
row echelon form with the kernel read off it, and symmetric Gaussian
elimination.  The package must give the same values, the same serialized
bytes, and must build no Fraction on its hot path.
"""

import json
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittforge import _linalg
from wittforge.errors import DomainError
from wittforge.quat import Quat, _orthogonal_pure, algebra, elem_to_json, \
    pure

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


@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.sampled_from([0, 0, 0, 1, -1, 2, -3, 4]),
    min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2).map(
        lambda u: (n, u))))
@settings(max_examples=300, deadline=None)
def test_congruence_diagonal_matches_the_fraction_reference(case):
    n, upper = case
    g = [[0] * n for _ in range(n)]
    it = iter(upper)
    for i in range(n):
        for j in range(i, n):
            g[i][j] = g[j][i] = next(it)
    assert _linalg.congruence_diagonalize(g) == ref_congruence_diagonal(g)


def test_congruence_diagonal_through_swaps_and_hyperbolic_pairs():
    # a zero pivot swapped with a later diagonal entry, a hyperbolic pair
    # made anisotropic by adding a column, and a zero row passed through
    for g in ([[0, 1, 0], [1, 0, 2], [0, 2, 3]],
              [[0, 3], [3, 0]],
              [[0, 0, 0], [0, 2, 1], [0, 1, 5]],
              [[0, 2, 0, 0], [2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 7]]):
        assert _linalg.congruence_diagonalize(g) == ref_congruence_diagonal(g)


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
