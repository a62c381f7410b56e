import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosov_forge.config import precisions
from anosov_forge.errors import PrecisionExhausted
from anosov_forge.intpoly import IntPolynomial
from anosov_forge.logval import LogLinearValue
from anosov_forge.realalg import Modulus, RealAlgebraic


def phi_sq() -> RealAlgebraic:
    # phi^2 = (3+sqrt5)/2, root of x^2 - 3x + 1 in (2, 3)
    return RealAlgebraic.from_enclosure(
        IntPolynomial((1, -3, 1)), lambda bits: (Fraction(2), Fraction(3))
    )


def test_rational_sign_and_zero():
    assert LogLinearValue.from_rational(0).is_exactly_zero()
    assert LogLinearValue.from_rational(Fraction(-3, 7)).sign() == -1
    assert LogLinearValue.from_rational(2).sign() == 1


def test_half_log_positive():
    v = LogLinearValue.half_log(phi_sq())
    assert v.sign() == 1
    assert not v.is_exactly_zero()


def test_cancellation_is_exact():
    v = LogLinearValue.half_log(phi_sq())
    w = v + v.scale(-1)
    assert w.is_exactly_zero()
    assert w.sign() == 0


def phi_inv_sq() -> RealAlgebraic:
    # phi^-2 = (3-sqrt5)/2, the smaller root of x^2 - 3x + 1
    return RealAlgebraic(IntPolynomial([1, -3, 1]), 0)


def test_multiplicative_cancellation():
    # log(phi^2) and log(phi^-2): two conjugate roots of x^2 - 3x + 1
    v = LogLinearValue.half_log(phi_sq()) + LogLinearValue.half_log(phi_inv_sq())
    assert v.is_exactly_zero()


def test_sign_of_a_multiplicative_cancellation_is_zero():
    # two terms that no interval separates from 0: sign() settles it by
    # the exact test
    v = LogLinearValue.half_log(phi_sq()) + LogLinearValue.half_log(phi_inv_sq())
    assert len(v.terms) == 2
    assert v.sign() == 0


def theta_sq() -> RealAlgebraic:
    # theta = 2 cos(2 pi / 9), the largest root of x^3 - 3x + 1, in (1, 2)
    theta = RealAlgebraic.from_enclosure(
        IntPolynomial((1, -3, 0, 1)), lambda bits: (Fraction(3, 2), Fraction(2))
    )
    return theta.pow(2)


UNITS = {"phi^2": phi_sq(), "theta^2": theta_sq()}
ratios = st.builds(
    Fraction,
    st.integers(1, 4).flatmap(lambda n: st.sampled_from([n, -n])),
    st.integers(1, 4),
)


@given(
    st.sampled_from(sorted(UNITS)),
    st.lists(st.integers(1, 6), min_size=2, max_size=2),
    ratios,
    ratios,
    st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_exact_zero_matches_planted_exponents(unit, exps, c1, c2, planted):
    # alpha = u^a and beta = u^b, so c1 log alpha + c2 log beta
    # = (c1 a + c2 b) log u, zero exactly when c1 a + c2 b = 0
    u = UNITS[unit]
    a, b = exps
    if planted:
        c2 = -c1 * a / b
    v = LogLinearValue.build(terms=[(c1, u.pow(a)), (c2, u.pow(b))])
    assert v.is_exactly_zero() == (c1 * a + c2 * b == 0)


@given(
    st.sampled_from(sorted(UNITS)),
    st.lists(st.integers(1, 6), min_size=3, max_size=3, unique=True),
    st.integers(1, 3),
    st.integers(1, 3),
    st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_exact_zero_with_two_terms_on_one_side(unit, exps, c1, c2, planted):
    # c1 log u^a + c2 log u^b against c3 log u^c: the positive side is a
    # product of two powers
    u = UNITS[unit]
    a, b, c = exps
    c3 = -Fraction(c1 * a + c2 * b, c) if planted else Fraction(-1)
    v = LogLinearValue.build(terms=[(c1, u.pow(a)), (c2, u.pow(b)), (c3, u.pow(c))])
    assert v.is_exactly_zero() == (c1 * a + c2 * b + c3 * c == 0)


def test_lindemann_rejects_rational_offset():
    # log(phi^2)/2 + 1 cannot vanish: nonzero const with algebraic logs
    v = LogLinearValue.half_log(phi_sq()) + LogLinearValue.from_rational(1)
    assert not v.is_exactly_zero()
    assert v.sign() == 1


def test_interval_nesting():
    v = LogLinearValue.half_log(phi_sq())
    lo1, hi1 = v.interval(32)
    lo2, hi2 = v.interval(128)
    assert lo1 <= lo2 <= hi2 <= hi1


def test_scale_and_compare():
    v = LogLinearValue.half_log(phi_sq())
    assert (v.scale(3) + v.scale(-3)).sign() == 0
    assert (v.scale(2) + v.scale(-1)).sign() == 1
    assert (v.scale(-2) + v).sign() == -1


def test_midpoint_accuracy():
    import math

    v = LogLinearValue.half_log(phi_sq())
    phi = (1 + math.sqrt(5)) / 2
    assert abs(float(v.midpoint(96)) - math.log(phi)) < 1e-20


def test_interval_of_a_modulus_below_the_precision():
    # the small root of x^2 - 2^80 x + 1 is about 2^-80: its 64-bit cell
    # reaches down to 0, and the log is taken on a narrower positive one
    tiny = RealAlgebraic.from_enclosure(
        IntPolynomial((1, -(2**80), 1)), lambda bits: (Fraction(0), Fraction(1, 2**79))
    )
    assert tiny.interval(64)[0] <= 0
    lo, hi = LogLinearValue.half_log(tiny).scale(2).interval(64)
    assert 0 < hi - lo < Fraction(1, 2**60)
    assert abs(float((lo + hi) / 2) + 80 * math.log(2)) < 1e-12


def test_interval_of_a_modulus_whose_disks_reach_zero():
    # a disk enclosure that reaches 0 is never served, even where the
    # precision raised by the root bound stays within the disks' range: the
    # modulus is identified and its log taken on the identified cells
    small = RealAlgebraic(IntPolynomial((1, -3, 1)), 0)  # (3 - sqrt 5)/2
    loose = Modulus([small.poly], lambda bits: (Fraction(0), small.interval(bits)[1]))
    value = LogLinearValue.half_log(loose)
    assert value.interval(64) == LogLinearValue.half_log(small).interval(64)
    assert loose.algebraic == small


# -- the refinement schedule ---------------------------------------------------


def test_precisions_double_from_64_and_stop_at_the_cap():
    assert list(precisions(16)) == []
    assert list(precisions(64)) == [64]
    assert list(precisions(100)) == [64, 100]
    assert list(precisions(128)) == [64, 128]
    assert list(precisions(4096)) == [64 << i for i in range(7)]


def test_sign_asks_for_the_schedule_and_then_raises(monkeypatch):
    # v = log phi^2 - floor(2^120 log phi^2) / 2^120 lies in (0, 2^-120):
    # never separated by a cap of 96 bits, and not exactly zero
    with mpmath.workprec(200):
        scaled = int(mpmath.floor(mpmath.log(mpmath.phi**2) * 2**120))
    v = LogLinearValue.build(Fraction(-scaled, 2**120), [(1, phi_sq())])
    asked = []
    interval = LogLinearValue.interval

    def spy(self, bits):
        asked.append(bits)
        return interval(self, bits)

    monkeypatch.setattr(LogLinearValue, "interval", spy)
    with pytest.raises(PrecisionExhausted):
        v.sign(96)
    # the schedule, then the initial enclosure of the exact test at the cap
    assert asked == [64, 96, 64]


@pytest.mark.parametrize("cap", [64, 96, 128, 200, 256])
def test_sign_decides_an_exact_zero_at_every_cap_from_64(cap):
    # the exact test runs at 256 bits, or at the last step of a lower cap
    v = LogLinearValue.half_log(phi_sq()) + LogLinearValue.half_log(phi_inv_sq())
    assert v.sign(cap) == 0
    with pytest.raises(PrecisionExhausted):
        v.sign(32)  # a cap below 64 bits refines at no precision


def test_sign_reaches_a_cap_that_is_not_a_power_of_two():
    # v = log phi^2 - floor(2^80 log phi^2) / 2^80 lies in (0, 2^-80): its
    # 64-bit enclosure holds 0 and its 100-bit one is positive
    with mpmath.workprec(200):
        scaled = int(mpmath.floor(mpmath.log(mpmath.phi**2) * 2**80))
    v = LogLinearValue.build(Fraction(-scaled, 2**80), [(1, phi_sq())])
    lo, hi = v.interval(64)
    assert lo < 0 < hi
    assert v.sign(100) == 1
