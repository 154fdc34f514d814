"""Small exact linear algebra over Fraction.

Matrices are lists of lists of Fraction.  Sizes here never exceed 12x12, so
plain Gaussian elimination is fine.
"""

from fractions import Fraction

from .errors import require

Matrix = list[list[Fraction]]


def mat(rows) -> Matrix:
    return [[Fraction(x) for x in row] for row in rows]


def identity(n: int) -> Matrix:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k, m = len(a), len(b), len(b[0])
    require(all(len(row) == k for row in a), n, k)
    return [[sum(a[i][t] * b[t][j] for t in range(k)) for j in range(m)]
            for i in range(n)]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot column indices."""
    m = [row[:] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = m[r][c]
        m[r] = [x / inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def kernel_basis(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel of a."""
    cols = len(a[0]) if a else 0
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def solve(a: Matrix, b: list[Fraction]) -> list[Fraction] | None:
    """One solution of a x = b, or None if inconsistent."""
    aug = [row[:] + [bv] for row, bv in zip(a, b)]
    red, pivots = rref(aug)
    cols = len(a[0])
    for row in red:
        if all(x == 0 for x in row[:cols]) and row[cols] != 0:
            return None
    x = [Fraction(0)] * cols
    for r, pc in enumerate(pivots):
        if pc < cols:
            x[pc] = red[r][cols]
    return x


def congruence_diagonalize(g: Matrix) -> tuple[list[Fraction], Matrix]:
    """Diagonalize a symmetric matrix by congruence: returns (diag, P) with
    P^T g P diagonal.  Zero rows pass through as zero diagonal entries.
    """
    n = len(g)
    a = [row[:] for row in g]
    p = identity(n)

    def add_col(dst: int, src: int, f: Fraction) -> None:
        for i in range(n):
            a[i][dst] += f * a[i][src]
        for i in range(n):
            a[dst][i] += f * a[src][i]
        for i in range(n):
            p[i][dst] += f * p[i][src]

    def swap_col(i: int, j: int) -> None:
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]
        a[i], a[j] = a[j], a[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if a[k][k] == 0:
            swap = next((j for j in range(k + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                swap_col(k, swap)
            else:
                off = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
                if off is None:
                    continue  # row and column k are zero from here on
                add_col(k, off, Fraction(1))
        for j in range(k + 1, n):
            if a[k][j] != 0:
                add_col(j, k, -a[k][j] / a[k][k])
    diag = [a[i][i] for i in range(n)]
    return diag, p
