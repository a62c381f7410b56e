from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from anosov_forge.intpoly import IntPolynomial, squarefree_part
from anosov_forge.numutil import certified_root_disks, modulus_squared_bounds, sqrt_bounds
from anosov_forge.weyl import _msq_enclosure

CARTAN_P = IntPolynomial((1, -3, 0, 1))  # x^3 - 3x + 1, three real roots
COMPLEX_P = IntPolynomial((1, 1, -1, 0, 1))  # x^4 - x^2 + x + 1, no real root


def _check_disks(p: IntPolynomial, bits: int) -> None:
    """The contract: deg p pairwise disjoint disks of radius <= 2^-bits, and
    a root found by mpmath at 4*bits lies inside each."""
    disks = certified_root_disks(p.coeffs, bits)
    assert len(disks) == p.degree
    assert all(r <= Fraction(1, 1 << bits) for _, _, r in disks)
    for i, (x1, y1, r1) in enumerate(disks):
        for x2, y2, r2 in disks[i + 1 :]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    with mpmath.workprec(4 * bits):
        roots = mpmath.polyroots(
            [mpmath.mpf(c) for c in reversed(p.coeffs)], maxsteps=500, extraprec=bits
        )
        for x, y, r in disks:
            centre = mpmath.mpc(_mpf(x), _mpf(y))
            assert any(abs(z - centre) <= _mpf(r) for z in roots)


def _mpf(v: Fraction):
    return mpmath.mpf(v.numerator) / v.denominator


@given(st.lists(st.integers(-9, 9), min_size=1, max_size=8), st.sampled_from([1, -1, 2, 3]))
@settings(max_examples=25, deadline=None)
def test_root_disks_contract_random(coeffs, lead):
    p = squarefree_part(IntPolynomial(coeffs + [lead]))
    assume(p.degree >= 1)
    for bits in (64, 128, 256):
        _check_disks(p, bits)


@pytest.mark.parametrize("k", [8, 20, 40])
def test_root_disks_contract_clustered(k):
    # (x - 1)(x - 1 - 2^-k)(x^2 + 1)(x - 1/3)(x + 2): a real pair 2^-k apart
    e = 1 << k
    p = (
        IntPolynomial((-e, e))
        * IntPolynomial((-(e + 1), e))
        * IntPolynomial((1, 0, 1))
        * IntPolynomial((-1, 3))
        * IntPolynomial((2, 1))
    )
    for bits in (64, 128, 256):
        _check_disks(p, bits)


def test_root_disks_contract_complex_cluster():
    # x^2 + 1 and (2^30 x)^2 + 2^60 + 1: conjugate pairs i and i*sqrt(1 + 2^-60)
    p = IntPolynomial((1, 0, 1)) * IntPolynomial(((1 << 60) + 1, 0, 1 << 60))
    for bits in (64, 128, 256):
        _check_disks(p, bits)


@pytest.mark.parametrize("bits", [64, 256, 1024])
def test_sqrt_bounds_on_requested_grid(bits):
    lo, hi = sqrt_bounds(Fraction(2), bits)
    assert lo * lo <= 2 <= hi * hi
    assert hi - lo == Fraction(1, 1 << bits)
    assert sqrt_bounds(Fraction(9, 4), bits)[0] == Fraction(3, 2)


@pytest.mark.parametrize("p", [CARTAN_P, COMPLEX_P])
@pytest.mark.parametrize("bits", [256, 1024])
def test_modulus_enclosures_shrink_with_bits(p, bits):
    # the centre's modulus is rounded on the 2^-bits grid, so enclosures of
    # |z|^2 and of |q(z)|^2 keep shrinking past 128 bits
    width = Fraction(1, 1 << (bits - 8))
    for re, im, rad in certified_root_disks(p.coeffs, bits):
        lo, hi = modulus_squared_bounds(re, im, rad, bits)
        assert 0 < hi - lo < width
    for disk in certified_root_disks(p.coeffs, 64):
        for q in ([Fraction(0), Fraction(1)], [Fraction(-1), Fraction(1, 2), Fraction(1)]):
            lo, hi = _msq_enclosure(p, disk, q)(bits)
            assert 0 < hi - lo < width
