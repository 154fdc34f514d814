"""Congruence diagonalization of a symmetric integer matrix.

A caller with rational data clears denominators first.  Elimination is
fraction-free (Bareiss): each step divides by the previous pivot, and that
division is exact because every entry it produces is a minor of the input.
So the work stays on ints, and each diagonal entry comes back from one
final division.  Sizes here never exceed 12x12.
"""

from fractions import Fraction

__all__ = ["congruence_diagonalize"]

Matrix = list[list[int]]


def congruence_diagonalize(g: Matrix) -> list[Fraction]:
    """The diagonal of P^T g P for the congruence P that symmetric Gaussian
    elimination builds on the symmetric matrix g.  A zero pivot is first
    swapped with a later nonzero diagonal entry or, failing that, made
    nonzero by adding a column (and row) with a nonzero entry in its row;
    a row that is zero from the pivot on passes through as a zero entry.

    The elimination is fraction-free: the trailing block is kept as the
    current pivot scale times the true one, and each diagonal entry is its
    pivot over the scale in force when it was taken.
    """
    n = len(g)
    a = [row[:] for row in g]
    scale = 1
    diag = []

    def add_col(dst: int, src: int) -> None:
        for i in range(n):
            a[i][dst] += a[i][src]
        for i in range(n):
            a[dst][i] += a[src][i]

    def swap_col(i: int, j: int) -> None:
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
                    diag.append(Fraction(0))   # row and column k are zero
                    continue
                add_col(k, off)
        p = a[k][k]
        pivot_row = a[k]
        for i in range(k + 1, n):
            row, f = a[i], a[i][k]
            for j in range(k + 1, n):
                row[j] = (p * row[j] - f * pivot_row[j]) // scale
        diag.append(Fraction(p, scale))
        scale = p
    return diag
