"""Seeded decompose12 inputs whose prime count grows at fixed dimension.

A helper for the test files, not a test module: inputs with many distinct
primes in their entries, which the library's own generators do not
control.  decompose12 reads its answer off the signature, so these check
that its cost and its verification stay flat as the prime count grows.
"""

from random import Random

from wittforge.quadform import QuadForm, diagonal, pfister, tensor


def split12_with_primes(rng: Random, k: int) -> QuadForm:
    """phi x <<e>> with phi = <a1, -a1 s1, a2, -a2 s2, a3, -a3 s1 s2>.

    det(phi) is -1 times a square, so e1 and e2 of the product vanish for
    every e.  The k - 1 smallest odd primes are dealt in shuffled order
    over (a1, a2, a3, s1, s2, e) with random signs, so the entries involve
    exactly k distinct primes, 2 included.
    """
    odd: list[int] = []
    n = 3
    while len(odd) < k - 1:
        if all(n % p for p in odd):
            odd.append(n)
        n += 2
    rng.shuffle(odd)
    slots = [1] * 6
    for i, p in enumerate(odd):
        slots[i % 6] *= p
    a1, a2, a3, s1, s2, e = (rng.choice((1, -1)) * x for x in slots)
    if e == 1:
        e = -1
    phi = diagonal(a1, -a1 * s1, a2, -a2 * s2, a3, -a3 * s1 * s2)
    return tensor(phi, pfister(e))
