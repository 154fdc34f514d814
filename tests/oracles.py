"""Slow local oracles that share no code with the package.

A helper for the test files, not a test module.  It uses the standard
library only and imports nothing from wittforge, so a route it checks
cannot agree with it through a shared helper.  It decides whether a
diagonal form with squarefree int entries has a nontrivial zero over a
completion of Q:

- at the real place, by the signs of the entries;
- at an odd prime p, by Springer's theorem: write the form as
  u ⊥ p w with u and w unimodular; it is isotropic over Q_p exactly when
  the reduction of u or of w mod p has a nonzero zero over F_p, found by
  brute force;
- at 2, by a zero mod 32 with some coordinate odd, searched over x mod 16
  (x^2 mod 32 depends on x mod 16 alone).  That is exact: a primitive
  zero over Z_2 gives one, and conversely, with x_i odd, d/dx_i =
  2 a_i x_i has valuation at most 2 for squarefree a_i, so Hensel lifts a
  zero mod 2^5 to one over Z_2.

A unimodular form of dim >= 3 is isotropic at every odd p (its reduction
has a zero over F_p, by Chevalley-Warning, which Hensel lifts), so a form
of dim >= 3 is isotropic over Q exactly when it is at the real place, at 2
and at every odd prime dividing an entry (Hasse-Minkowski).

It also reads lattices of Z^n that contain 4Z^n.  Such a lattice L is
fixed by its image L/4Z^n in (Z/4)^n, and the image of a meet is the meet
of the images, so a meet of lattices is a set intersection of images.
The image is found by closing the generators under addition mod 4, by
brute force.  A lattice given by n rows contains 4Z^n exactly when its
index |det| times the size of its image is 4^n.
"""

from itertools import permutations, product

REAL = "real"


def prime_divisors(n: int) -> list[int]:
    """The distinct primes dividing n != 0, by trial division."""
    n, out, p = abs(n), [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    return out + [n] if n > 1 else out


def is_squarefree(n: int) -> bool:
    m = abs(n)
    return m > 0 and all(m % (p * p) for p in prime_divisors(m))


def _zero_mod_p(coeffs: list[int], p: int) -> bool:
    # a nonzero x over F_p with sum c_i x_i^2 = 0: up to scaling its first
    # nonzero coordinate is 1
    n = len(coeffs)
    for lead in range(n):
        for tail in product(range(p), repeat=n - lead - 1):
            x = (1, *tail)
            if sum(c * t * t for c, t in zip(coeffs[lead:], x)) % p == 0:
                return True
    return False


# (x^2 mod 32, x mod 2) over the residues x mod 16
_SQUARES_MOD_32 = sorted({(x * x % 32, x % 2) for x in range(16)})


def _zero_mod_32(entries: list[int]) -> bool:
    for choice in product(_SQUARES_MOD_32, repeat=len(entries)):
        if (any(odd for _, odd in choice)
                and sum(a * s for a, (s, _) in zip(entries, choice)) % 32
                == 0):
            return True
    return False


def isotropic_at(entries: list[int], v) -> bool:
    """Whether the diagonal form with squarefree int entries has a
    nontrivial zero over the completion of Q at v (a prime or REAL)."""
    assert all(is_squarefree(a) for a in entries), entries
    if v == REAL:
        return min(entries) < 0 < max(entries)
    if v == 2:
        return _zero_mod_32(entries)
    units = [a % v for a in entries if a % v]
    p_part = [a // v % v for a in entries if a % v == 0]
    return _zero_mod_p(units, v) or _zero_mod_p(p_part, v)


def locally_isotropic(entries: list[int]) -> bool:
    """For dim >= 3: isotropic at the real place, at 2 and at every odd
    prime dividing an entry, so at every place of Q."""
    assert len(entries) >= 3, entries
    odd = {p for a in entries for p in prime_divisors(a) if p != 2}
    return all(isotropic_at(entries, v) for v in (REAL, 2, *sorted(odd)))


def closure(gens, modulus: int) -> frozenset:
    """The subgroup of (Z/modulus)^n generated by gens, by brute force."""
    gens = [tuple(x % modulus for x in g) for g in gens]
    n = len(gens[0])
    group = {(0,) * n}
    frontier = list(group)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % modulus for a, b in zip(x, g))
                if y not in group:
                    group.add(y)
                    fresh.append(y)
        frontier = fresh
    return frozenset(group)


def determinant(rows) -> int:
    """Leibniz expansion over all permutations of the columns."""
    n, total = len(rows), 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j]
                         for i in range(n) for j in range(i + 1, n))
        term = -1 if inversions % 2 else 1
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def image_mod_4(rows) -> frozenset:
    """The image in (Z/4)^n of the lattice with these n rows, which must
    contain 4Z^n."""
    image = closure(rows, 4)
    assert abs(determinant(rows)) * len(image) == 4 ** len(rows), rows
    return image
