"""The fraction-free elimination of linalg against a Gauss-Jordan
elimination in Fractions: rref, rank, nullspace, solve and inverse agree
on rational and integer matrices of every shape, full rank or not, with
zero rows and columns, and on inconsistent systems; det agrees with
sympy's."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anosov_forge import linalg

# the blocks' rows stay untouched while the other block is eliminated, and
# the first block's rows are rescaled at the end (the pivots are 5 and 25)
BLOCKS = [[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 3, 1], [0, 0, 1, 2]]
# at the third pivot, rows 2 and 3 are swapped: neither was updated at the
# second pivot, 5, and they were last updated at 3 and at the start
UNTOUCHED_SWAP = [[3, 1, 0, 0], [1, 2, 0, 0], [3, 1, 0, 1], [0, 0, 1, 1]]


def reference_reduce(m: list[list[Fraction]], cols: int) -> list[int]:
    """Bring m to reduced row echelon form in place, pivoting in its first
    cols columns only, each pivot row divided by its pivot; returns the
    pivot columns."""
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


def reference_rref(a) -> tuple[list[list[Fraction]], list[int]]:
    m = [[Fraction(x) for x in row] for row in a]
    return m, reference_reduce(m, len(m[0]))


def reference_nullspace(a) -> tuple[list[list[Fraction]], list[int]]:
    red, pivots = reference_rref(a)
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


def reference_solve(a, bs) -> list[list[Fraction] | None]:
    rows, cols = len(a), len(a[0])
    m = [[Fraction(x) for x in a[i]] + [Fraction(b[i]) for b in bs] for i in range(rows)]
    pivots = reference_reduce(m, cols)
    out: list[list[Fraction] | None] = []
    for k in range(cols, cols + len(bs)):
        if any(m[i][k] for i in range(len(pivots), rows)):
            out.append(None)
            continue
        x = [Fraction(0)] * cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][k]
        out.append(x)
    return out


_rationals = st.fractions(-5, 5, max_denominator=6)
_integers = st.integers(-9, 9)


@st.composite
def matrices(draw, shape=None):
    """B C for B of n x k and C of k x m, k at most min(n, m) and often
    below it, entries all rational or all integer, with some rows and
    columns then set to 0."""
    n, m = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 6)))
    k = draw(st.integers(0, min(n, m)))
    entries = draw(st.sampled_from((_rationals, _integers)))
    b = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=n, max_size=n))
    c = draw(st.lists(st.lists(entries, min_size=m, max_size=m), min_size=k, max_size=k))
    a = [[sum((x * y for x, y in zip(row, col)), 0) for col in zip(*c)] or [0] * m for row in b]
    zero_rows = draw(st.sets(st.integers(0, n - 1), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, m - 1), max_size=2))
    return [
        [0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(a)
    ]


@given(matrices())
@example(BLOCKS)
@example(UNTOUCHED_SWAP)
@example([[0, 0], [0, 0], [0, 0]])
@settings(max_examples=300, deadline=None)
def test_rref_rank_nullspace_match_fraction_reference(a):
    before = [row[:] for row in a]
    ref, pivots = reference_rref(a)
    assert linalg.rref(a) == (ref, pivots)
    assert linalg.rank(a) == len(pivots)
    assert linalg.nullspace(a) == reference_nullspace(a)
    assert a == before


@given(matrices(), st.data())
@example(BLOCKS, None)
@example(UNTOUCHED_SWAP, None)
@settings(max_examples=300, deadline=None)
def test_solve_matches_fraction_reference(a, data):
    # right-hand sides A x, consistent, and drawn at random, which are
    # inconsistent whenever they miss the column space
    rows, cols = len(a), len(a[0])
    if data is None:
        xs = [[Fraction(j + 1, 2) for j in range(cols)]]
        bs = [[Fraction(1)] * rows]
    else:
        vec = st.lists(st.one_of(_rationals, _integers), min_size=cols, max_size=cols)
        xs = data.draw(st.lists(vec, max_size=2))
        bs = data.draw(st.lists(st.lists(_rationals, min_size=rows, max_size=rows), max_size=2))
    bs = [[sum(r * x for r, x in zip(row, xv)) for row in a] for xv in xs] + bs
    got = linalg.solve(a, bs)
    assert got == reference_solve(a, bs)
    for b, x in zip(bs, got):
        if x is not None:
            assert [sum(r * v for r, v in zip(row, x)) for row in a] == b
    assert all(x is not None for x in got[: len(xs)])


@given(st.integers(1, 6).flatmap(lambda n: matrices((n, n))))
@example(BLOCKS)
@example(UNTOUCHED_SWAP)
@settings(max_examples=200, deadline=None)
def test_inverse_and_det_match_references(a):
    # the row scale of the elimination is lost in the rref, but not in det
    n = len(a)
    expected = sympy.Matrix([[sympy.Rational(str(x)) for x in row] for row in a]).det()
    assert linalg.det(a) == Fraction(str(expected))
    cols = reference_solve(a, [[int(i == j) for i in range(n)] for j in range(n)])
    if None in cols:
        with pytest.raises(ValueError):
            linalg.inverse(a)
        return
    assert linalg.inverse(a) == [list(row) for row in zip(*cols)]
