from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov_forge import realalg
from anosov_forge.intpoly import IntPolynomial, factor_rational
from anosov_forge.realalg import RealAlgebraic


def sqrt2() -> RealAlgebraic:
    return RealAlgebraic.from_enclosure(
        IntPolynomial((-2, 0, 1)), lambda bits: (Fraction(1), Fraction(2))
    )


def golden() -> RealAlgebraic:
    return RealAlgebraic.from_enclosure(
        IntPolynomial((-1, -1, 1)), lambda bits: (Fraction(1), Fraction(2))
    )


@pytest.mark.parametrize(
    "lo, hi, index",
    [
        (Fraction(-5), Fraction(-1), 0),
        (Fraction(-2), Fraction(1, 4), 0),
        (Fraction(-1), Fraction(1), 1),
        (Fraction(1, 4), Fraction(3, 2), 1),
        (Fraction(1, 2), Fraction(5, 2), 2),
    ],
)
def test_enclosure_across_canonical_intervals(lo, hi, index):
    # x^3 - 3x + 1 has roots near -1.88, 0.35 and 1.53, isolated in
    # (-4, 0), (0, 1) and (1, 2); each enclosure holds one root and,
    # except the first, meets two of those intervals
    p = IntPolynomial((1, -3, 0, 1))
    assert realalg._isolations(p.coeffs) == ((-4, 0), (0, 1), (1, 2))
    r = RealAlgebraic.from_enclosure(p, lambda bits: (lo, hi))
    assert r.index == index
    a, b = r.interval(64)
    assert lo < a <= b < hi


def test_rational_roundtrip():
    x = RealAlgebraic.from_rational(Fraction(3, 7))
    assert x.is_rational
    assert x.as_rational() == Fraction(3, 7)


def test_sqrt2_square_is_two():
    s = sqrt2()
    assert s.mul(s) == RealAlgebraic.from_rational(2)


def test_interval_contains_and_shrinks():
    s = sqrt2()
    lo64, hi64 = s.interval(64)
    lo256, hi256 = s.interval(256)
    assert lo64 <= lo256 <= hi256 <= hi64
    assert hi256 - lo256 <= Fraction(1, 2**256)
    assert abs(float((lo64 + hi64) / 2) - 1.4142135623730951) < 1e-15


def test_golden_identity():
    # phi^2 * phi = phi^3 = phi * phi^2, and phi^2 != phi
    phi = golden()
    sq = phi.mul(phi)
    assert sq == phi.pow(2)
    assert sq.mul(phi) == phi.pow(3) == phi.mul(sq)
    assert sq != phi


def test_pow():
    s = sqrt2()
    assert s.pow(4) == RealAlgebraic.from_rational(4)
    assert s.pow(0) == RealAlgebraic.from_rational(1)
    with pytest.raises(ValueError):
        s.pow(-2)


def test_equality_distinguishes_conjugates():
    s = sqrt2()
    neg = RealAlgebraic.from_enclosure(
        IntPolynomial((-2, 0, 1)), lambda bits: (Fraction(-2), Fraction(-1))
    )
    assert s != neg
    assert s.mul(neg) == RealAlgebraic.from_rational(-2)


def test_from_enclosure_rejects_rootless_interval():
    with pytest.raises(Exception):
        RealAlgebraic.from_enclosure(
            IntPolynomial((-2, 0, 1)), lambda bits: (Fraction(5), Fraction(6))
        )


def reference_bisection(p, lo, hi, bits):
    """Halve (lo, hi) on exact Fraction signs until it is 2^-bits wide."""
    target = Fraction(1, 2**bits)
    slo = 1 if p(lo) > 0 else -1
    while hi - lo > target:
        mid = (lo + hi) / 2
        if (1 if p(mid) > 0 else -1) == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _refinements_match_bisection(x: RealAlgebraic, bit_sequence):
    lo, hi = x._lo, x._hi
    for bits in bit_sequence:
        lo, hi = reference_bisection(x.poly, lo, hi, bits)
        assert x.interval(bits) == (lo, hi)


@given(
    st.lists(st.integers(-12, 12), min_size=2, max_size=9),
    st.integers(1, 5),
    st.integers(0, 8),
    st.lists(st.integers(1, 1024), min_size=1, max_size=5, unique=True),
)
@settings(max_examples=40, deadline=None)
def test_interval_equals_bisection(low, lead, pick, bit_sequence):
    # irreducible factors of degree 2..9, refined along increasing precisions
    factors = [
        f for f, _ in factor_rational(IntPolynomial(low + [lead])) if f.degree >= 2
    ]
    roots = [
        RealAlgebraic(f, i)
        for f in factors
        for i in range(len(realalg._isolations(f.coeffs)))
    ]
    assume(roots)
    _refinements_match_bisection(roots[pick % len(roots)], sorted(bit_sequence))


def test_cartan_t3_root_at_4096_bits():
    # the largest root of x^3 - 3x + 1, refined in one call
    _refinements_match_bisection(RealAlgebraic(IntPolynomial((1, -3, 0, 1)), 2), [4096])


def test_bisection_fallback_gives_the_same_cell(monkeypatch):
    # with every Newton jump refused, refinement is plain bisection
    def fresh():
        return RealAlgebraic(IntPolynomial((-1, 2, 0, -3, 1)), 1)

    expected = fresh().interval(300)
    monkeypatch.setattr(realalg, "_newton_cell", lambda *args: None)
    assert fresh().interval(300) == expected
    _refinements_match_bisection(fresh(), [40, 100, 300])
