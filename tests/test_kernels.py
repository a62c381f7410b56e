"""The exact integer kernels against sympy: Zassenhaus factoring, primitive
pseudo-remainder gcds, Berkowitz characteristic polynomials and the
determinants of the fraction-free elimination (its rref, nullspace and
solve are checked in test_linalg.py); and restrictions to invariant
subspaces read off at their echelon coordinates."""

from fractions import Fraction

import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import from_sympy, restricts_exactly, to_sympy

from anosov_forge import linalg
from anosov_forge.actions import RationalSubspace, rational_primary_decomposition
from anosov_forge.intpoly import (
    IntPolynomial,
    composed_product_poly,
    factor_rational,
    pair_product_parts,
    poly_gcd,
    squarefree_part,
)

# x^8 - 2x^6 - x^5 + 2x^4 + x^3 + 2x^2 - 3x + 1, lowest degree first: the
# seeded degree-8 pair of the benchmark's seed 1
D8 = IntPolynomial((1, -3, 2, 1, 2, -1, -2, 0, 1))
SWINNERTON_DYER_4 = IntPolynomial((1, 0, -10, 0, 1))  # sqrt2 + sqrt3
SWINNERTON_DYER_8 = IntPolynomial((576, 0, -960, 0, 352, 0, -40, 0, 1))  # + sqrt5


def sympy_factors(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    _, factors = to_sympy(p).factor_list()
    return [(from_sympy(f).primitive(), int(m)) for f, m in factors]


def assert_factors_like_sympy(p: IntPolynomial) -> None:
    assert factor_rational(p) == sympy_factors(p)


def polys(max_degree=8, bound=20):
    lead = st.integers(-bound, bound).filter(bool)
    return st.builds(
        lambda low, lc: IntPolynomial(low + [lc]),
        st.lists(st.integers(-bound, bound), min_size=1, max_size=max_degree),
        lead,
    )


@given(polys(max_degree=12))
@settings(max_examples=120, deadline=None)
def test_factor_random_polynomials_like_sympy(p):
    assert_factors_like_sympy(p)


@given(st.lists(st.tuples(polys(max_degree=4, bound=6), st.integers(1, 3)), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_factor_products_with_repeated_roots_like_sympy(parts):
    p = IntPolynomial([1])
    for f, m in parts:
        for _ in range(m):
            p = p * f
    assert_factors_like_sympy(p)


@given(st.lists(st.tuples(st.integers(1, 30), st.integers(1, 2)), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_factor_cyclotomic_products_like_sympy(orders):
    p = IntPolynomial([1])
    for n, m in orders:
        phi = from_sympy(sympy.Poly(sympy.cyclotomic_poly(n, sympy.Symbol("x"))))
        for _ in range(m):
            p = p * phi
    assert_factors_like_sympy(p)


def test_factor_swinnerton_dyer_polynomials():
    # irreducible over Q, yet a product of factors of degree <= 2 modulo every prime
    for p in (SWINNERTON_DYER_4, SWINNERTON_DYER_8):
        assert factor_rational(p) == [(p, 1)]
        assert_factors_like_sympy(p)
        assert_factors_like_sympy(p * p.reciprocal() * IntPolynomial((-1, 0, 1)))


def test_factor_pair_product_candidates_of_degree_28_and_36():
    # the eigenvalue polynomials of the generators A and A - I of the pair
    for img in (D8, from_sympy(to_sympy(D8).shift(1))):
        whole = squarefree_part(composed_product_poly(img, img))
        squares, cross = pair_product_parts(img)
        assert (whole.degree, cross.degree) == (36, 28)
        for p in (whole, squares, cross):
            assert_factors_like_sympy(p)


def test_factor_keeps_content_sign_and_powers_of_x_apart():
    p = IntPolynomial((0, 0, -6, 0, 6))  # 6 x^2 (x^2 - 1)
    assert factor_rational(p) == sympy_factors(p)
    assert factor_rational(IntPolynomial((7,))) == []


@given(polys(max_degree=6, bound=9), polys(max_degree=6, bound=9), polys(max_degree=3, bound=5))
@settings(max_examples=100, deadline=None)
def test_gcd_like_sympy(a, b, common):
    for p, q in ((a, b), (a * common, b * common), (a * common * common, common)):
        assert poly_gcd(p, q) == from_sympy(sympy.gcd(to_sympy(p), to_sympy(q))).primitive()


def int_matrices(max_n=6, bound=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-bound, bound), min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


def sympy_charpoly(a) -> list[Fraction]:
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])
    coeffs = [sympy.Rational(c) for c in reversed(m.charpoly().all_coeffs())]
    return [Fraction(int(c.p), int(c.q)) for c in coeffs]


@given(int_matrices())
@settings(max_examples=80, deadline=None)
def test_berkowitz_like_sympy_on_integer_matrices(rows):
    a = linalg.to_mat(rows)
    assert list(linalg.charpoly(a).coeffs) == sympy_charpoly(a)


def rational_matrices(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.lists(st.fractions(-5, 5, max_denominator=6), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )


@given(rational_matrices(max_n=7))
@example([[0, 1], [1, 0]])  # a row swap
@example([[1, 2, 3], [2, 4, 6], [0, 0, 1]])  # singular
@example([[2, 1, 0, 0], [1, 3, 0, 0], [0, 0, 3, 1], [0, 0, 5, 2]])  # rows rescaled late
@example([[3, 1, 2], [0, 0, 1], [0, 2, 5]])  # a swap of two rows not yet rescaled
@settings(max_examples=80, deadline=None)
def test_det_like_sympy_on_rational_matrices(a):
    m = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in a])
    expected = sympy.Rational(m.det())
    got = linalg.det(linalg.to_mat(a))
    assert isinstance(got, Fraction)
    assert got == Fraction(int(expected.p), int(expected.q))


@given(int_matrices(max_n=5, bound=4))
@settings(max_examples=40, deadline=None)
def test_berkowitz_like_sympy_on_rational_restrictions(rows):
    a = linalg.to_mat(rows)
    parts = rational_primary_decomposition(a)
    for _, _, sub in parts:
        restricted = sub.restrict(a)
        assert list(linalg.charpoly(restricted).coeffs) == sympy_charpoly(restricted)


@given(int_matrices(max_n=5, bound=4), st.data())
@settings(max_examples=40, deadline=None)
def test_restriction_to_kernels_and_their_sums(rows, data):
    # primary components are kernels, with the identity at their free
    # columns; a sum of them is an invariant span, with the identity at the
    # pivots of its rref
    a = linalg.to_mat(rows)
    parts = [sub for _, _, sub in rational_primary_decomposition(a)]
    for sub in parts:
        assert restricts_exactly(a, sub)
    picks = data.draw(st.sets(st.integers(0, len(parts) - 1), min_size=1))
    total = RationalSubspace.span([v for i in picks for v in parts[i].basis])
    assert total.dimension == sum(parts[i].dimension for i in picks)
    assert restricts_exactly(a, total)
