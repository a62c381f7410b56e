"""Exact linear algebra over Q (lists of lists of Fraction).

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


def det(a: Mat) -> Fraction:
    """Determinant, by fraction-free Bareiss elimination on B = den * A:
    det A = det B / den^n.  A step only scales a row with 0 in the pivot
    column, by the pivot over the previous one; these factors telescope, so
    the row keeps the pivot it was last updated at and is rescaled once."""
    n = len(a)
    m, den = integral(a)
    level = [1] * n  # the pivot each row was last updated at
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            level[k], level[pivot] = level[pivot], level[k]
            sign = -sign
        top = [x * prev // level[k] for x in m[k][k + 1 :]]
        p = m[k][k] * prev // level[k]
        for i in range(k + 1, n):
            row, f = m[i], m[i][k]
            if f:
                # exact: the Bareiss value of the row brought up to date
                tail = zip(row[k + 1 :], top)
                row[k + 1 :] = [(p * x - f * y) // level[i] for x, y in tail]
                level[i] = p
        prev = p
    return Fraction(sign * prev, den**n)


def _reduce(m: Mat, cols: int) -> list[int]:
    """Bring m to reduced row echelon form in place, pivoting in its first
    cols columns only; returns the pivot columns."""
    rows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        pivot = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [v - f * w for v, w in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return pivots


def rref(a: Mat) -> tuple[Mat, list[int]]:
    m = [row[:] for row in a]
    return m, _reduce(m, len(m[0]) if m else 0)


def rank(a: Mat) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def nullspace(a: Mat) -> tuple[list[Vec], list[int]]:
    """Basis of the right kernel, one vector per free column in increasing
    order, and the free columns: at them the basis is the identity."""
    red, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis, free


def solve(a: Mat, bs: list[Vec]) -> list[Vec | None]:
    """One solution of A x = b for each right-hand side b, or None where it
    is inconsistent, from one elimination of A with every b appended; the
    free unknowns are 0."""
    rows, cols = len(a), len(a[0])
    m = [a[i] + [b[i] for b in bs] for i in range(rows)]
    pivots = _reduce(m, cols)
    out: list[Vec | None] = []
    for k in range(cols, cols + len(bs)):
        if any(m[i][k] for i in range(len(pivots), rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][k]
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
