import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import restricts_exactly

from anosov_forge import linalg
from anosov_forge.actions import (
    RationalSubspace,
    invariant_complement,
    is_anosov_matrix,
    is_semisimple,
    is_totally_reducible,
    joint_primary_components,
    product_matrix,
    rational_primary_decomposition,
    semisimple_part,
    validate,
)
from anosov_forge.errors import NonCommuting, NotUnimodular, ShapeMismatch
from anosov_forge.intpoly import IntPolynomial, factor_rational, poly_gcd, squarefree_part

CAT = [[2, 1], [1, 1]]
JORDAN = [[1, 1], [0, 1]]


def minimal_polynomial(a) -> IntPolynomial:
    """Reference: least-degree monic-up-to-content integer polynomial
    killing the matrix, as the product of the factors of the
    characteristic polynomial, each to the power at which the rank of its
    powers at A stabilises."""
    m = linalg.to_mat(a)
    result = IntPolynomial([1])
    for factor, mult in factor_rational(linalg.charpoly(m)):
        base = linalg.poly_at_matrix(factor, m)
        e, power, prev_rank = 1, base, linalg.rank(base)
        while e < mult:
            nxt = linalg.mat_mul(power, base)
            nrank = linalg.rank(nxt)
            if nrank == prev_rank:
                break
            power, prev_rank, e = nxt, nrank, e + 1
        for _ in range(e):
            result = result * factor
    return result.primitive()


def test_validate_rejects_noncommuting():
    with pytest.raises(NonCommuting):
        validate([[[1, 1], [0, 1]], [[1, 0], [1, 1]]])


def test_validate_rejects_nonunimodular():
    with pytest.raises(NotUnimodular):
        validate([[[2, 0], [0, 1]]])


def test_validate_rejects_ragged():
    with pytest.raises(ShapeMismatch):
        validate([[[1, 0], [0]]])


def test_semisimple_cat_not_jordan():
    assert is_semisimple(validate([CAT]))
    assert not is_semisimple(validate([JORDAN]))


def test_minimal_polynomial_jordan():
    # (x-1)^2 for the Jordan block, x-1 for the identity
    m = minimal_polynomial(linalg.to_mat(JORDAN))
    assert m.degree == 2
    assert minimal_polynomial(linalg.identity(3)).degree == 1


def full_power_kernel(factor, mult, a) -> RationalSubspace:
    """Reference: ker P(A)^m, from one evaluation of the product P^m."""
    power = math.prod([factor] * mult, start=IntPolynomial([1]))
    return RationalSubspace.kernel(linalg.poly_at_matrix(power, a))


def test_primary_decomposition_block_diag():
    m = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]]
    a = linalg.to_mat(m)
    parts = rational_primary_decomposition(a)
    dims = sorted(sub.dimension for _, _, sub in parts)
    assert dims == [2, 2]
    # the Jordan block is not semisimple
    assert not is_semisimple(validate([m]))
    # on it ker (A - I) is a line, so only ker (A - I)^2 is the component
    (jordan,) = [(f, k, sub) for f, k, sub in parts if f.degree == 1]
    assert jordan[1] == 2
    assert RationalSubspace.kernel(linalg.poly_at_matrix(jordan[0], a)).dimension == 1
    for factor, mult, sub in parts:
        assert sub == full_power_kernel(factor, mult, a)


def test_semisimple_part_annihilates_nilpotent():
    j = linalg.to_mat(JORDAN)
    assert semisimple_part(j, squarefree_part(linalg.charpoly(j))) == linalg.identity(2)
    c = linalg.to_mat(CAT)
    assert semisimple_part(c, squarefree_part(linalg.charpoly(c))) == c


def test_joint_primary_components_span(cartan_action):
    comps = joint_primary_components(cartan_action)
    assert sum(c.dim for c in comps) == cartan_action.dim


def test_totally_reducible_matches_semisimple(cartan_action):
    ok, witness = is_totally_reducible(cartan_action)
    assert ok and witness is not None
    bad = validate([[[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]])
    ok2, witness2 = is_totally_reducible(bad)
    assert not ok2 and witness2 is None


def test_invariant_complement_exists_for_semisimple():
    g = linalg.to_mat(CAT)
    # the expanding eigendirection is irrational, so take the invariant
    # subspace {0}; complement is everything
    sub = RationalSubspace.span([])
    comp = invariant_complement([g], sub)
    assert comp is not None and comp.dimension == 2


def test_invariant_complement_fails_for_jordan():
    g = linalg.to_mat(JORDAN)
    sub = RationalSubspace.span([[1, 0]])
    assert invariant_complement([g], sub) is None


def test_invariant_complement_splits_block_diag():
    m = linalg.to_mat(
        [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
    )
    sub = RationalSubspace.span([[1, 0, 0, 0], [0, 1, 0, 0]])
    comp = invariant_complement([m], sub)
    assert comp is not None and comp.dimension == 2


def int_blocks(draw, n: int, m: int) -> list[list[int]]:
    return [[draw(st.integers(-3, 3)) for _ in range(m)] for _ in range(n)]


@st.composite
def planted_splits(draw):
    """(a, generators T diag(A_g, B_g) T^-1) for T = [[I, Y], [0, I]] and
    one Y: every generator is [[A_g, Y B_g - A_g Y], [0, B_g]], so Q^a + 0
    is invariant, with the invariant complement T(0 + Q^b)."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    y = int_blocks(draw, a, b)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        ga, gb = int_blocks(draw, a, a), int_blocks(draw, b, b)
        top = [
            ga[i]
            + [
                sum(y[i][t] * gb[t][j] for t in range(b)) - sum(ga[i][t] * y[t][j] for t in range(a))
                for j in range(b)
            ]
            for i in range(a)
        ]
        gens.append(linalg.to_mat(top + [[0] * a + row for row in gb]))
    return a, gens


@given(planted_splits())
@settings(max_examples=60, deadline=None)
def test_invariant_complement_of_planted_split(case):
    a, gens = case
    d = len(gens[0])
    sub = RationalSubspace.span(linalg.identity(d)[:a])
    comp = invariant_complement(gens, sub)
    assert comp is not None and comp.dimension == d - a
    assert all(restricts_exactly(g, comp) for g in gens)
    assert linalg.rank([list(v) for v in sub.basis + comp.basis]) == d


def test_is_anosov_matrix():
    assert is_anosov_matrix(CAT)
    assert not is_anosov_matrix([[0, -1], [1, 0]])  # rotation, eigenvalues +-i
    assert not is_anosov_matrix(JORDAN)


def test_anosov_iff_inverse_anosov():
    m = linalg.to_mat(CAT)
    assert is_anosov_matrix(m) == is_anosov_matrix(linalg.inverse(m))


def test_product_matrix_exponents(cartan_action):
    a1, a2 = cartan_action.generator_mats()
    prod = product_matrix(cartan_action, (2, -1))
    expected = linalg.mat_mul(linalg.mat_pow(a1, 2), linalg.inverse(a2))
    assert prod == expected


@st.composite
def unimodular_2x2(draw):
    # random product of elementary shears: always unimodular and integral
    m = linalg.identity(2)
    for _ in range(draw(st.integers(1, 5))):
        t = draw(st.integers(-3, 3))
        e = [[1, t], [0, 1]] if draw(st.booleans()) else [[1, 0], [t, 1]]
        m = linalg.mat_mul(m, linalg.to_mat(e))
    return m


@given(unimodular_2x2())
@settings(max_examples=40, deadline=None)
def test_primary_decomposition_dimensions_sum(m):
    parts = rational_primary_decomposition(m)
    assert sum(f.degree * mult for f, mult, _ in parts) == 2
    assert sum(sub.dimension for _, _, sub in parts) == 2


@given(unimodular_2x2())
@settings(max_examples=40, deadline=None)
def test_anosov_invariant_under_inversion(m):
    assert is_anosov_matrix(m) == is_anosov_matrix(linalg.inverse(m))


# blocks with unit determinant; the last three are not semisimple
_BLOCKS = [
    [[2, 1], [1, 1]],
    [[0, -1], [1, 3]],
    [[-1]],
    [[1, 1], [0, 1]],
    [[-1, 1], [0, -1]],
    [[0, -1, 1, 0], [1, 3, 0, 1], [0, 0, 0, -1], [0, 0, 1, 3]],
]


def _block_diagonal(blocks):
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    at = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[at + i][at : at + len(row)] = row
        at += len(b)
    return out


@st.composite
def commuting_tuples(draw):
    """Generators diag(+-B_1^e_1, ..., +-B_k^e_k) over one list of blocks,
    conjugated by one unimodular matrix: they commute, and a generator is
    semisimple iff no Jordan-type block has a nonzero exponent."""
    picks = draw(st.lists(st.integers(0, len(_BLOCKS) - 1), min_size=1, max_size=3))
    blocks = [_BLOCKS[i] for i in picks]
    n = sum(len(b) for b in blocks)
    u = linalg.identity(n)
    for _ in range(draw(st.integers(0, 4)) if n > 1 else 0):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        e = linalg.identity(n)
        e[i][j] = Fraction(draw(st.integers(-2, 2)))
        u = linalg.mat_mul(u, e)
    u_inv = linalg.inverse(u)
    gens = []
    for _ in range(draw(st.integers(1, 2))):
        parts = []
        for b in blocks:
            sign = draw(st.sampled_from([1, -1]))
            power = linalg.mat_pow(linalg.to_mat(b), draw(st.integers(-2, 2)))
            parts.append([[sign * v for v in row] for row in power])
        g = linalg.mat_mul(linalg.mat_mul(u, linalg.to_mat(_block_diagonal(parts))), u_inv)
        gens.append([[int(v) for v in row] for row in g])
    return gens


@given(commuting_tuples())
@settings(max_examples=40, deadline=None)
def test_is_semisimple_matches_squarefree_minimal_polynomial(gens):
    action = validate(gens)
    expected = all(
        poly_gcd(mp, mp.derivative()).degree == 0
        for mp in (minimal_polynomial(linalg.to_mat(g)) for g in gens)
    )
    assert is_semisimple(action) == expected
    assert is_totally_reducible(action)[0] == expected


@given(commuting_tuples())
@settings(max_examples=40, deadline=None)
def test_joint_components_store_commuting_semisimple_parts(gens):
    action = validate(gens)
    comps = joint_primary_components(action)
    for comp in comps:
        for (factor, _), m in zip(comp.labels, comp.mats):
            assert linalg.is_zero_mat(linalg.poly_at_matrix(factor, m))
            power = math.prod([factor] * (comp.dim // factor.degree), start=IntPolynomial([1]))
            assert linalg.charpoly(m) == power
        for a, b in itertools.combinations(comp.mats, 2):
            assert linalg.mat_mul(a, b) == linalg.mat_mul(b, a)
    assert all(c.semisimple for c in comps) == is_semisimple(action)


@given(commuting_tuples())
@settings(max_examples=40, deadline=None)
def test_primary_components_are_kernels_of_the_full_power(gens):
    # diag(g, g) repeats every block, so every factor has multiplicity > 1;
    # a Jordan-type block with a nonzero exponent makes ker P(A) too small
    for g in gens:
        a = linalg.to_mat(_block_diagonal([g, g]))
        for factor, mult, sub in rational_primary_decomposition(a):
            assert mult > 1
            assert sub == full_power_kernel(factor, mult, a)
