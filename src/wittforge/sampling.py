"""Seeded instance generators for stress suites and the CLI selftest.

Every function takes an explicit random.Random, so a fixed seed replays
the same instances; the CLI selftest relies on this to stay byte-stable.
Bounds are inclusive sup-norm caps on the raw integers drawn.
"""

from __future__ import annotations

from random import Random

from .cohomology import brauer_from_symbol
from .errors import DomainError
from .hermitian import SkewHermForm, skew_form
from .qarith import squarefree_part
from .quadform import QuadForm, diagonal, e1, pfister, tensor
from .quat import Quat, QuaternionAlgebra, algebra, pure

__all__ = ["nonzero_int", "pure_invertible", "random_algebra", "random_form",
           "random_skew_form", "split12_instance", "split_algebra",
           "square_class"]


def nonzero_int(rng: Random, bound: int) -> int:
    if bound < 1:
        raise DomainError(f"no nonzero integer within the bound {bound}")
    while True:
        n = rng.randint(-bound, bound)
        if n:
            return n


def square_class(rng: Random, bound: int = 30) -> int:
    return squarefree_part(nonzero_int(rng, bound))


def random_form(rng: Random, dim: int, bound: int = 9) -> QuadForm:
    return diagonal(*(nonzero_int(rng, bound) for _ in range(dim)))


def random_algebra(rng: Random, bound: int = 15) -> QuaternionAlgebra:
    return algebra(square_class(rng, bound), square_class(rng, bound))


def split_algebra(rng: Random, bound: int = 15) -> QuaternionAlgebra:
    while True:
        alg = random_algebra(rng, bound)
        if alg.is_split():
            return alg


def pure_invertible(rng: Random, alg: QuaternionAlgebra,
                    bound: int = 6) -> Quat:
    while True:
        q = pure(alg, *(rng.randint(-bound, bound) for _ in range(3)))
        if q.nrd != 0:
            return q


def random_skew_form(rng: Random, alg: QuaternionAlgebra, rank: int,
                     bound: int = 6) -> SkewHermForm:
    return skew_form(alg, *(pure_invertible(rng, alg, bound)
                            for _ in range(rank)))


def split12_instance(rng: Random,
                     coeff_bound: int = 50) -> tuple[QuadForm, int, QuadForm]:
    """psi = <<d>> x phi with e1(phi) = d0 and (d, d0) split.

    Returns (psi, d, phi); d = 1 is excluded so the instances exercise a
    genuinely quadratic extension.  A phi whose discriminant admits no
    split partner within the coefficient bound is redrawn: the candidate
    d range over a fixed bound is finite, so rejection on d alone could
    spin forever.
    """
    cands = {s * squarefree_part(n)
             for n in range(1, coeff_bound + 1) for s in (1, -1)}
    cands = sorted(cands - {1})
    while True:
        phi = random_form(rng, 6, coeff_bound)
        d0 = e1(phi)
        splits = [d for d in cands if brauer_from_symbol(d, d0).is_zero()]
        if splits:
            d = rng.choice(splits)
            return tensor(phi, pfister(d)), d, phi
