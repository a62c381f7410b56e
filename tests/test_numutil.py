import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from anosov_forge.intpoly import IntPolynomial, cauchy_root_bound, squarefree_part
from anosov_forge.numutil import (
    _log_bounds,
    _pairwise_disjoint,
    _raw_mpf_to_fraction,
    certified_root_disks,
    log_interval,
    modulus_squared_bounds,
    sqrt_bounds,
)
from anosov_forge.weyl import _msq_enclosure, _place_disks

CARTAN_P = IntPolynomial((1, -3, 0, 1))  # x^3 - 3x + 1, three real roots
COMPLEX_P = IntPolynomial((1, 1, -1, 0, 1))  # x^4 - x^2 + x + 1, no real root


def _check_disks(p: IntPolynomial, bits: int) -> None:
    """The contract: deg p pairwise disjoint disks of radius <= 2^-bits, and
    a root found by mpmath lies inside each.  The radius is absolute, so the
    reference runs at 4*bits plus the bits of the root bound."""
    disks = certified_root_disks(p.coeffs, bits)
    assert len(disks) == p.degree
    assert all(r <= Fraction(1, 1 << bits) for _, _, r in disks)
    for i, (x1, y1, r1) in enumerate(disks):
        for x2, y2, r2 in disks[i + 1 :]:
            assert (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
    with mpmath.workprec(4 * bits + math.ceil(cauchy_root_bound(p)).bit_length()):
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


# 2^1101 (x^3 - 3x) + 1 and x^3 + 2^1100 x - 1 (roots near +-2^550 i and
# 2^-1100), whose coefficients no double holds, and a degree-20 unit
# polynomial, squarefree, lowest coefficient first
_BEYOND_FLOAT = (
    IntPolynomial((1, -3 << 1101, 0, 1 << 1101)),
    IntPolynomial((-1, 1 << 1100, 0, 1)),
)
_DEGREE_20 = IntPolynomial(
    (-1, 3, 0, -3, -1, 1, 0, 0, 3, 3, -1, 0, -1, 1, -2, 1, -2, -1, -2, 3, 1)
)


def test_root_disks_contract_beyond_float_range():
    # the float start gives way to sweeps from the circle when a
    # coefficient is out of float range, and starts the degree-20 case
    assert squarefree_part(_DEGREE_20) == _DEGREE_20
    for p in (*_BEYOND_FLOAT, _DEGREE_20):
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
            lo, hi = _msq_enclosure(_place_disks(p, disk), q)(bits)
            assert 0 < hi - lo < width


def _eval_poly_on_disk(
    q: list[Fraction], re: Fraction, im: Fraction, rad: Fraction, bits: int
) -> tuple[Fraction, Fraction, Fraction]:
    """Disk enclosure of q(z) over the disk around re + i*im, in Fractions:
    the reference for the integer evaluation of _msq_enclosure."""
    are, aim = Fraction(0), Fraction(0)
    for c in reversed(q):
        are, aim = are * re - aim * im + c, are * im + aim * re
    # |q(z) - q(center)| <= rad * sum_t t |q_t| R^(t-1), R >= |center| + rad
    _, chi = sqrt_bounds(re * re + im * im, bits)
    big_r = chi + rad
    deriv_bound = sum(Fraction(t) * abs(c) * big_r ** (t - 1) for t, c in enumerate(q) if t)
    return are, aim, rad * deriv_bound


def _reference_msq_enclosure(p: IntPolynomial, base_disk, q: list[Fraction], bits: int):
    """The hull of the Fraction bounds over every disk of p at bits that
    meets base_disk, each disk tested with Fraction distances."""
    bre, bim, brad = base_disk
    lo = hi = None
    for re, im, rad in certified_root_disks(p.coeffs, bits):
        if (re - bre) ** 2 + (im - bim) ** 2 > (rad + brad) ** 2:
            continue
        a, b = modulus_squared_bounds(*_eval_poly_on_disk(q, re, im, rad, bits), bits)
        lo = a if lo is None else min(lo, a)
        hi = b if hi is None else max(hi, b)
    return lo, hi


_unit_polys = st.builds(
    lambda c0, middle: squarefree_part(IntPolynomial([c0, *middle, 1])),
    st.sampled_from((1, -1)),
    st.lists(st.integers(-4, 4), min_size=1, max_size=9),
)
_rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))


@given(_unit_polys, st.data())
@example(CARTAN_P, None)
@example(COMPLEX_P, None)
@settings(max_examples=40, deadline=None)
def test_msq_enclosure_equals_fraction_reference(p, data):
    # real and complex places, q of degree 0 to deg p - 1 with zero and
    # negative coefficients: the integer enclosure equals the Fraction one
    assume(p.degree >= 2)
    if data is None:
        qs = [[Fraction(3, 2)], [Fraction(0), Fraction(-1, 3), Fraction(0), Fraction(5, 7)]]
    else:
        # one draw shared by the disks: a draw per disk can overrun the data budget
        qs = [data.draw(st.lists(_rationals, min_size=1, max_size=p.degree)) for _ in range(2)]
    for disk in certified_root_disks(p.coeffs, 64):
        match = _place_disks(p, disk)
        for q in qs:
            enclosure = _msq_enclosure(match, q)
            for bits in (64, 128, 256):
                assert enclosure(bits) == _reference_msq_enclosure(p, disk, q, bits)


def _reference_disjoint(disks) -> bool:
    return all(
        (x1 - x2) ** 2 + (y1 - y2) ** 2 > (r1 + r2) ** 2
        for i, (x1, y1, r1) in enumerate(disks)
        for x2, y2, r2 in disks[i + 1 :]
    )


_dyadics = st.builds(lambda n, e: Fraction(n, 1 << e), st.integers(-64, 64), st.integers(0, 8))
_disks = st.tuples(
    _dyadics, _dyadics | st.just(Fraction(0)), st.builds(abs, _dyadics).filter(bool)
)


@given(
    st.lists(_disks, min_size=1, max_size=5),
    st.lists(st.tuples(_dyadics, st.booleans()), max_size=3),
)
# tangent off the axis, and apart with real centres (denominator 1)
@example([(Fraction(0), Fraction(0), Fraction(1)), (Fraction(3, 4), Fraction(1), Fraction(1, 4))], [])
@example([(Fraction(0), Fraction(0), Fraction(1)), (Fraction(2), Fraction(0), Fraction(1, 2))], [])
@settings(max_examples=200, deadline=None)
def test_pairwise_disjoint_matches_fraction_reference(disks, tangents):
    # each tangent entry (u, axis) adds a disk at distance exactly its
    # radius plus r_0 from the first disk: along the real axis, or along
    # (3, 4) at distance 5|u|
    x0, y0, r0 = disks[0]
    for u, axis in tangents:
        u = abs(u) or Fraction(1)
        if axis or 5 * u <= r0:
            disks.append((x0 - r0 - u, y0, u))
        else:
            disks.append((x0 + 3 * u, y0 - 4 * u, 5 * u - r0))
    assert _pairwise_disjoint(disks) == _reference_disjoint(disks)


def _iv_log_interval(lo: Fraction, hi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """The enclosure as mpmath.iv builds it: exact interval endpoints,
    interval division, interval log, and the outer bound of each result,
    at 16 bits past the larger of bits and either endpoint's size."""
    prec = 16 + max(
        bits,
        lo.numerator.bit_length() + lo.denominator.bit_length(),
        hi.numerator.bit_length() + hi.denominator.bit_length(),
    )
    iv = mpmath.iv
    old = iv.prec
    try:
        iv.prec = prec
        a = iv.log(iv.mpf(lo.numerator) / iv.mpf(lo.denominator))
        b = iv.log(iv.mpf(hi.numerator) / iv.mpf(hi.denominator))
        return _raw_mpf_to_fraction(a._mpi_[0]), _raw_mpf_to_fraction(b._mpi_[1])
    finally:
        iv.prec = old


_positive = st.integers(1, 1 << 4096)
_rationals = st.one_of(
    st.builds(lambda n, e: Fraction(n, 1 << e), _positive, st.integers(0, 4100)),
    st.builds(Fraction, _positive, _positive),
)


@st.composite
def _log_cases(draw):
    """(lo, hi, bits): two independent endpoints, or a cell lo + 2^-w as the
    refinement of an algebraic number hands to the log."""
    lo = draw(_rationals)
    if draw(st.booleans()):
        hi = draw(_rationals)
        lo, hi = min(lo, hi), max(lo, hi)
    else:
        hi = lo + Fraction(1, 1 << draw(st.integers(0, 4096)))
    return lo, hi, draw(st.integers(16, 4096))


def _log_at(x: Fraction, prec: int) -> Fraction:
    with mpmath.workprec(prec):
        return _raw_mpf_to_fraction(mpmath.log(mpmath.mpf(x.numerator) / x.denominator)._mpf_)


@given(_log_cases())
@settings(max_examples=40, deadline=None)
def test_log_interval_encloses_a_log_at_four_times_the_precision(case):
    lo, hi, bits = case
    la, lb = log_interval(lo, hi, bits)
    size = max(x.numerator.bit_length() + x.denominator.bit_length() for x in (lo, hi))
    prec = 4 * (16 + max(bits, size))
    # the approximations are off by far less than the rounding of the bounds
    slack = Fraction(1, 1 << (prec - 64))
    assert la <= _log_at(lo, prec) + slack
    assert _log_at(hi, prec) - slack <= lb


@pytest.mark.parametrize(
    "lo, hi, bits",
    [
        (Fraction(1), 1 + Fraction(1, 1 << 25), 16),
        # a point: 32 bits, where mpf_log rounds log(1 + 2^-25) "up" to
        # 2^-25 - 2^-51, below it
        (1 + Fraction(1, 1 << 25), 1 + Fraction(1, 1 << 25), 16),
    ],
    ids=["cell", "point"],
)
def test_log_interval_encloses_log_of_one_plus_two_to_the_minus_25(lo, hi, bits):
    la, lb = log_interval(lo, hi, bits)
    size = max(x.numerator.bit_length() + x.denominator.bit_length() for x in (lo, hi))
    prec = 4 * (16 + max(bits, size))
    slack = Fraction(1, 1 << (prec - 64))
    assert la <= _log_at(lo, prec) + slack
    assert _log_at(hi, prec) - slack <= lb


@given(_log_cases())
@settings(max_examples=40, deadline=None)
def test_log_interval_contains_the_interval_arithmetic_reference(case):
    # mpmath.iv at the precision 16 + max(bits, size of either endpoint),
    # about twice the cell's, lies inside the enclosure at the cell's
    lo, hi, bits = case
    la, lb = log_interval(lo, hi, bits)
    ia, ib = _iv_log_interval(lo, hi, bits)
    assert la <= ia and ib <= lb


@given(_log_cases())
@settings(max_examples=40, deadline=None)
def test_log_interval_is_no_wider_than_the_cell_and_the_request(case):
    # log hi - log lo <= (hi - lo)/lo, and the rounding adds at most 2^-bits
    lo, hi, bits = case
    la, lb = log_interval(lo, hi, bits)
    assert lb - la <= (hi - lo) / lo + Fraction(1, 1 << bits)


@given(_log_cases())
@settings(max_examples=20, deadline=None)
def test_log_interval_cold_equals_warm(case):
    lo, hi, bits = case
    warm = log_interval(lo, hi, bits)
    assert log_interval(lo, hi, bits) == warm
    _log_bounds.cache_clear()
    assert log_interval(lo, hi, bits) == warm


def test_log_interval_requests_below_the_cell_share_one_entry():
    # on a cell refined past both, requests for 32 and 64 bits reach the
    # same working precision and one evaluation
    lo = Fraction(3, 2) + Fraction(1, 1 << 200)
    hi = lo + Fraction(1, 1 << 200)
    _log_bounds.cache_clear()
    assert log_interval(lo, hi, 32) == log_interval(lo, hi, 64)
    assert _log_bounds.cache_info().misses == 1
