import math
from fractions import Fraction

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov_forge.intpoly import (
    IntPolynomial,
    cauchy_root_bound,
    composed_product_poly,
    factor_rational,
    isolate_real_roots,
    pair_product_parts,
    power_poly,
    resultant_y,
    sign_at,
    squarefree_part,
    sturm_chain,
    sturm_count,
)
from anosov_forge.errors import EndpointRoot

X2_MINUS_2 = IntPolynomial((-2, 0, 1))
FIB = IntPolynomial((-1, -1, 1))  # x^2 - x - 1


def test_eval_and_degree():
    p = IntPolynomial((1, -3, 0, 2))  # 2x^3 - 3x + 1
    assert p.degree == 3
    assert p(Fraction(1, 2)) == Fraction(-1, 4)
    assert p(1) == 0


def test_squarefree_part_splits_multiplicity():
    p = X2_MINUS_2 * X2_MINUS_2 * FIB
    sf = squarefree_part(p)
    # squarefree part has each root once: degree 4
    assert sf.degree == 4
    assert squarefree_part(sf).degree == 4


def test_factor_rational_multiplicities():
    p = FIB * FIB * IntPolynomial((-1, 1))
    factors = dict(factor_rational(p))
    assert factors[FIB.primitive()] == 2
    assert sum(f.degree * m for f, m in factors.items()) == p.degree


def test_sturm_count_sqrt2():
    # x^2 - 2 has one root in (1, 2) and one in (-2, -1)
    assert sturm_count(X2_MINUS_2, Fraction(1), Fraction(2)) == 1
    assert sturm_count(X2_MINUS_2, Fraction(-2), Fraction(-1)) == 1
    assert sturm_count(X2_MINUS_2, Fraction(-1), Fraction(1)) == 0


def test_isolate_real_roots_cubic():
    # x^3 - 3x + 1 has three real roots near -1.88, 0.347, 1.53
    p = IntPolynomial((1, -3, 0, 1))
    roots = isolate_real_roots(p)
    assert len(roots) == 3
    targets = [-1.879385, 0.347296, 1.532089]
    intervals = sorted(roots)
    for (lo, hi), t in zip(intervals, targets):
        assert float(lo) <= t <= float(hi)
        assert sturm_count(p, lo, hi) == 1


def test_pair_product_poly_contains_products():
    # roots of x^2-2 are +-sqrt2: the squares are 2, 2 and the cross
    # product is -2
    squares, cross = pair_product_parts(X2_MINUS_2)
    assert squares == IntPolynomial((-2, 1)) * IntPolynomial((-2, 1))
    assert cross == IntPolynomial((2, 1))


def test_power_poly_squares_roots():
    q = power_poly(X2_MINUS_2, 2)
    # sqrt2^2 = 2 must be a root
    assert q(2) == 0


def test_cauchy_bound_is_a_bound():
    p = IntPolynomial((1, -3, 0, 1))
    b = cauchy_root_bound(p)
    assert sturm_count(p, -b, b) == 3


@given(
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5),
)
@settings(max_examples=50, deadline=None)
def test_mul_degree_additivity(a, b):
    p, q = IntPolynomial(tuple(a)), IntPolynomial(tuple(b))
    if p.is_zero or q.is_zero:
        assert (p * q).is_zero
    else:
        assert (p * q).degree == p.degree + q.degree


@given(st.lists(st.integers(-9, 9), min_size=2, max_size=6))
@settings(max_examples=50, deadline=None)
def test_real_root_isolations_disjoint_and_contain_roots(coeffs):
    p = IntPolynomial(tuple(coeffs))
    assume(not p.is_zero and p.degree > 0)
    p = squarefree_part(p)
    intervals = isolate_real_roots(p)
    for i, (lo, hi) in enumerate(intervals):
        assert sturm_count(p, lo, hi) == 1
        for lo2, hi2 in intervals[i + 1 :]:
            assert hi <= lo2 or hi2 <= lo


def _sign(v) -> int:
    return (v > 0) - (v < 0)


@given(
    st.lists(st.integers(-50, 50), min_size=0, max_size=8),
    st.integers(-1000, 1000),
    st.integers(1, 1000),
)
@settings(max_examples=200, deadline=None)
def test_sign_at_agrees_with_fraction_evaluation(coeffs, n, d):
    p = IntPolynomial(tuple(coeffs))
    x = Fraction(n, d)
    assert sign_at(p.coeffs, x) == _sign(p(x))


@given(
    st.lists(st.integers(-20, 20), min_size=1, max_size=6),
    st.integers(-300, 300),
    st.integers(1, 300),
)
@settings(max_examples=100, deadline=None)
def test_sign_at_is_zero_at_rational_roots(coeffs, n, d):
    q = IntPolynomial(tuple(coeffs))
    assume(not q.is_zero)
    x = Fraction(n, d)
    p = IntPolynomial((-x.numerator, x.denominator)) * q
    assert sign_at(p.coeffs, x) == 0
    assert sign_at(p.coeffs, x + Fraction(1, 10**9)) == _sign(p(x + Fraction(1, 10**9)))


def test_sturm_count_raises_at_endpoint_root():
    p = IntPolynomial((-1, 0, 1))  # roots -1 and 1
    with pytest.raises(EndpointRoot):
        sturm_count(p, Fraction(1), Fraction(2))
    with pytest.raises(EndpointRoot):
        sturm_count(p, Fraction(-3), Fraction(-1))
    assert sturm_count(p, Fraction(-2), Fraction(2)) == 2


# -- composed polynomials from power sums --------------------------------------


def _resultant_reference(p: IntPolynomial, other) -> IntPolynomial:
    """Res_x(p(x), other(x, y)) by sympy, as a primitive polynomial in y."""
    x, y = sympy.symbols("x y")
    return resultant_y(p, other(x, y)).primitive()


def _homogenised(q: IntPolynomial):
    """(x, y) -> x^deg q(y / x): its resultant with p has roots r*s."""
    d = q.degree
    return lambda x, y: sum(c * y**i * x ** (d - i) for i, c in enumerate(q.coeffs))


@st.composite
def integer_polys(draw):
    """Degree 1..8, leading coefficient not always +-1, and a repeated
    factor in about a third of the draws."""
    lead = draw(st.sampled_from([1, -1, 2, -3, 5]))
    if draw(st.integers(0, 2)) == 0:
        f = IntPolynomial(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=2)) + [lead])
        g = IntPolynomial(draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3)) + [1])
        return f * f * g
    return IntPolynomial(draw(st.lists(st.integers(-6, 6), min_size=1, max_size=8)) + [lead])


@given(integer_polys())
@settings(max_examples=40, deadline=None)
def test_pair_product_poly_matches_resultant(p):
    # the ordered pairs are the squares once and each cross product twice
    squares, cross = pair_product_parts(p)
    assert (squares * cross * cross).primitive() == _resultant_reference(p, _homogenised(p))


@given(integer_polys(), integer_polys())
@settings(max_examples=30, deadline=None)
def test_composed_product_poly_matches_resultant(p, q):
    assert composed_product_poly(p, q) == _resultant_reference(p, _homogenised(q))


@given(integer_polys(), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_power_poly_matches_resultant(p, n):
    assert power_poly(p, n) == _resultant_reference(p, lambda x, y: y - x**n)


# -- Sturm chains --------------------------------------------------------------


def _fraction_sturm_chain(p: IntPolynomial):
    """The chain by remainders over Q, each row -(a mod b) made primitive
    with its sign kept."""
    p = squarefree_part(p)
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while chain[-1]:
        a = [Fraction(c) for c in chain[-2]]
        b = chain[-1]
        while len(a) >= len(b) and any(a):
            factor = a[-1] / b[-1]
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] -= factor * c
            a.pop()
        while a and a[-1] == 0:
            a.pop()
        if not a:
            break
        den = math.lcm(*(c.denominator for c in a))
        ints = [-int(c * den) for c in a]
        g = math.gcd(*ints)
        chain.append([c // g for c in ints])
    return tuple(tuple(row) for row in chain)


@given(integer_polys())
@settings(max_examples=100, deadline=None)
def test_sturm_chain_matches_fraction_remainders(p):
    assert sturm_chain(p.coeffs) == _fraction_sturm_chain(p)
