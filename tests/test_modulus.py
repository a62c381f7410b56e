from hypothesis import given, settings
from hypothesis import strategies as st

from anosov_forge.intpoly import IntPolynomial
from anosov_forge.modulus import has_unit_modulus_root

FIB = IntPolynomial((-1, -1, 1))
CARTAN = IntPolynomial((1, -3, 0, 1))  # x^3 - 3x + 1, all roots real units


def test_has_unit_modulus_root_cyclotomics():
    cyclotomics = [
        IntPolynomial((1, 1)),  # x + 1
        IntPolynomial((1, 1, 1)),  # x^2 + x + 1
        IntPolynomial((1, 0, 1)),  # x^2 + 1
        IntPolynomial((1, -1, 1)),
        IntPolynomial((1, 1, 1, 1, 1)),
    ]
    for p in cyclotomics:
        assert has_unit_modulus_root(p)


def test_has_unit_modulus_root_salem():
    # Salem polynomial x^4 - x^3 - x^2 - x + 1: two real roots with product 1
    # and a complex pair ON the unit circle
    salem = IntPolynomial((1, -1, -1, -1, 1))
    assert has_unit_modulus_root(salem)


def test_no_unit_modulus_root_pisot():
    assert not has_unit_modulus_root(FIB)
    assert not has_unit_modulus_root(CARTAN)
    # x^3 - x - 1 (plastic number): complex pair has modulus < 1
    assert not has_unit_modulus_root(IntPolynomial((-1, -1, 0, 1)))


@given(st.integers(2, 40))
@settings(max_examples=30, deadline=None)
def test_unit_root_detection_linear(n):
    # x - n has no unit-modulus root; x^2 - 1 does
    assert not has_unit_modulus_root(IntPolynomial((-n, 1)))
    assert has_unit_modulus_root(IntPolynomial((-1, 0, 1)))
