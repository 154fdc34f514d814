"""Small exact linear algebra over the integers.

Matrices are lists of lists of int; a caller with rational data clears
denominators first.  Elimination is fraction-free (Bareiss): each step
divides by the previous pivot, and that division is exact because every
entry it produces is a minor of the input.  So the work stays on ints, and
a rational answer comes back as integer numerators over one positive
denominator, or, for the diagonal of a congruence, as one final division
per entry.  Sizes here never exceed 12x12.
"""

from fractions import Fraction

from .errors import require

__all__ = ["Matrix", "congruence_diagonalize", "kernel_basis", "mat_mul",
           "rref", "solve", "transpose"]

Matrix = list[list[int]]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    require(all(len(row) == k for row in a), n, k)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(a: Matrix) -> tuple[Matrix, int, list[int]]:
    """(m, d, pivots): m / d is the reduced row echelon form of a, d > 0,
    and pivots are its pivot column indices.

    Gauss-Jordan without fractions: clearing a column scales every other
    row by the pivot and divides by the previous one, so each earlier
    pivot entry becomes the new pivot, and at the end every pivot entry
    of m is the last pivot.
    """
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    prev = 1
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        top = m[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                row = m[i]
                f = row[c]
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        prev = p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    if prev < 0:
        m = [[-x for x in row] for row in m]
        prev = -prev
    return m, prev, pivots


def kernel_basis(a: Matrix) -> tuple[list[list[int]], int]:
    """(basis, d): the vectors v / d, v in basis, are the basis of the right
    kernel of a that its reduced row echelon form reads off, one vector
    per free column."""
    cols = len(a[0]) if a else 0
    red, d, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * cols
        v[fc] = d
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis, d


def solve(a: Matrix, b: list[int]) -> tuple[list[int], int] | None:
    """(x, d) with a (x / d) = b, zero on the free columns; None if the
    system is inconsistent."""
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, d, pivots = rref(aug)
    cols = len(a[0])
    if cols in pivots:
        return None
    x = [0] * cols
    for r, pc in enumerate(pivots):
        x[pc] = red[r][cols]
    return x, d


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
