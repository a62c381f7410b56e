"""Exact linear algebra over Q, on lists of rows of Fractions or ints.

One fraction-free Gauss-Jordan elimination on integer rows (Bareiss, Math.
Comp. 22, 1968) is behind det, rref, rank, nullspace, solve and inverse.
Characteristic polynomials come from Berkowitz's division-free algorithm
(Inf. Proc. Lett. 18, 1984) on the integer matrix den * A.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .intpoly import IntPolynomial

Mat = list[list[Fraction]]
Vec = list[Fraction]


def to_mat(rows) -> Mat:
    return [[Fraction(v) for v in row] for row in rows]


def identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def zeros(n: int, m: int) -> Mat:
    return [[Fraction(0)] * m for _ in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            v = ai[t]
            if v:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    oi[j] += v * bt[j]
    return out


def int_mat_mul(a, b) -> list[list[int]]:
    """Product of integer matrices, in integers."""
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum(r[j] * v[j] for j in range(len(v))) for r in a]


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Mat, b: Mat) -> Mat:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Fraction) -> Mat:
    return [[c * x for x in row] for row in a]


def is_zero_mat(a: Mat) -> bool:
    return all(x == 0 for row in a for x in row)


def integral(a) -> tuple[list[list[int]], int]:
    """(B, den) with A = B / den, den the common denominator of A."""
    den = math.lcm(*(x.denominator for row in a for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in a], den


def _integer_rows(a) -> tuple[list[list[int]], int]:
    """Each row of A times its common denominator, and their product."""
    rows = [integral([row]) for row in a]
    return [b for (b,), _ in rows], math.prod(den for _, den in rows)


def _reduce(m: list[list[int]], cols: int) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of the integer rows m in
    place, pivoting in their first cols columns; returns the pivot columns,
    the last pivot d and the sign of the row swaps.  The reduced row echelon
    form is then m / d, and a square m of full rank has determinant sign d.

    A row with f in the column of pivot p becomes (p row - f top) / prev,
    top the pivot row and prev the pivot before (Bareiss): exact, as every
    entry is a minor of m.  A row with 0 there would only be scaled by
    p / prev; these factors telescope, so the row keeps the pivot it was
    last updated at and is rescaled once at the end."""
    rows = len(m)
    level = [1] * rows  # the pivot each row was last updated at
    pivots: list[int] = []
    sign, prev = 1, 1
    for c in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        if pivot != r:
            m[r], m[pivot] = m[pivot], m[r]
            level[r], level[pivot] = level[pivot], level[r]
            sign = -sign
        # brought up to date, the pivot row stays as it is at this step
        top = m[r] = [x * prev // level[r] for x in m[r]]
        p = level[r] = top[c]
        for i in range(rows):
            f = m[i][c]
            if f and i != r:
                m[i] = [(p * x - f * y) // level[i] for x, y in zip(m[i], top)]
                level[i] = p
        pivots.append(c)
        prev = p
    for i in range(rows):
        m[i] = [x * prev // level[i] for x in m[i]]
    return pivots, prev, sign


def det(a: Mat) -> Fraction:
    """The signed last pivot of the integer rows over their denominators."""
    m, scale = _integer_rows(a)
    pivots, d, sign = _reduce(m, len(m))
    return Fraction(sign * d, scale) if len(pivots) == len(m) else Fraction(0)


def rref(a: Mat) -> tuple[Mat, list[int]]:
    m, _ = _integer_rows(a)
    pivots, d, _ = _reduce(m, len(m[0]) if m else 0)
    return [[Fraction(x, d) for x in row] for row in m], pivots


def rank(a: Mat) -> int:
    return len(_reduce(_integer_rows(a)[0], len(a[0]) if a else 0)[0])


def nullspace(a: Mat) -> tuple[list[Vec], list[int]]:
    """Basis of the right kernel, one vector per free column in increasing
    order, and the free columns: at them the basis is the identity."""
    m, _ = _integer_rows(a)
    cols = len(a[0])
    pivots, d, _ = _reduce(m, cols)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = Fraction(-m[r][fc], d)
        basis.append(v)
    return basis, free


def solve(a: Mat, bs: list[Vec]) -> list[Vec | None]:
    """One solution of A x = b for each right-hand side b, or None where it
    is inconsistent, from one elimination of A with every b appended; the
    free unknowns are 0."""
    rows, cols = len(a), len(a[0])
    m, _ = _integer_rows(a[i] + [b[i] for b in bs] for i in range(rows))
    pivots, d, _ = _reduce(m, cols)
    out: list[Vec | None] = []
    for k in range(cols, cols + len(bs)):
        if any(m[i][k] for i in range(len(pivots), rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, pc in enumerate(pivots):
            x[pc] = Fraction(m[r][k], d)
        out.append(x)
    return out


def inverse(a: Mat) -> Mat:
    cols = solve(a, identity(len(a)))
    if None in cols:
        raise ValueError("matrix is singular")
    return [list(row) for row in zip(*cols)]


def mat_pow(a: Mat, n: int) -> Mat:
    if n < 0:
        return mat_pow(inverse(a), -n)
    out = identity(len(a))
    base = [row[:] for row in a]
    while n:
        if n & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base) if n > 1 else base
        n >>= 1
    return out


def _berkowitz(b: list[list[int]]) -> list[int]:
    """Coefficients of det(x I - B), highest degree first, for an integer
    matrix B.  The leading r x r blocks B_r are taken in turn: with R the
    row and C the column that border B_r and a the corner, the polynomial
    of B_(r+1) is the lower triangular Toeplitz matrix of
    (1, -a, -R C, -R B_r C, ..., -R B_r^(r-1) C) times that of B_r."""
    poly = [1]
    for r in range(len(b)):
        row, col = b[r][:r], [b[i][r] for i in range(r)]
        toeplitz = [1, -b[r][r]]
        for _ in range(r):
            toeplitz.append(-sum(x * y for x, y in zip(row, col)))
            col = [sum(x * y for x, y in zip(b[i][:r], col)) for i in range(r)]
        poly = [
            sum(toeplitz[i - j] * poly[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
            for i in range(r + 2)
        ]
    return poly


def charpoly(a: Mat) -> IntPolynomial:
    """Characteristic polynomial; must have integer coefficients.

    Holds for every rational matrix whose eigenvalues are algebraic
    integers: integer matrices, their restrictions to invariant rational
    subspaces, and integer combinations of commuting semisimple parts of
    integer matrices.  With den the common denominator of A,
    det(x I - A) = sum_k e[k] den^-k x^(n-k) for e the Berkowitz
    coefficients of den * A.
    """
    b, den = integral(a)
    e = _berkowitz(b)
    coeffs = []
    for k, c in enumerate(e):
        q, r = divmod(c, den**k)
        if r:
            raise ValueError("characteristic polynomial is not integral")
        coeffs.append(q)
    return IntPolynomial(reversed(coeffs))


def poly_at_matrix(p: IntPolynomial, a: Mat) -> Mat:
    """p(A), by Horner in integers: A = B/den with B integral, and
    den^deg p(A) = sum c_k den^(deg-k) B^k."""
    n = len(a)
    if p.is_zero:
        return zeros(n, n)
    b, den = integral(a)
    h = [[p.leading * (i == j) for j in range(n)] for i in range(n)]
    scale = 1
    for c in reversed(p.coeffs[:-1]):
        scale *= den
        h = int_mat_mul(h, b)
        if c:
            for i in range(n):
                h[i][i] += c * scale
    return [[Fraction(x, scale) for x in row] for row in h]
