"""Exact unit-circle test for the roots of integer polynomials.

has_unit_modulus_root decides whether some complex root of p has modulus
one: roots on the unit circle come in reciprocal pairs, so they are roots of
gcd(p, reciprocal p); after stripping x = +-1 that gcd is palindromic, and
x + 1/x maps its unit-circle roots onto real roots in [-2, 2], which a Sturm
count detects.  Everything is exact integer polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import IntPolynomial, poly_gcd, squarefree_part, sturm_count


def _strip_unit_factors(g: IntPolynomial) -> IntPolynomial:
    """Divide out every factor x - 1 and x + 1, by synthetic division."""
    for root in (1, -1):
        while g.degree >= 1 and g(root) == 0:
            quotient, acc = [], 0
            for c in reversed(g.coeffs[1:]):
                acc = acc * root + c
                quotient.append(acc)
            g = IntPolynomial(reversed(quotient))
    return g


def _chebyshev_like_transform(g: IntPolynomial) -> IntPolynomial:
    """For palindromic g of even degree 2m, return h with g(x) = x^m h(x+1/x)."""
    a = list(g.coeffs)
    m = g.degree // 2
    # T_k(y) represents x^k + x^-k: T_0 = 2, T_1 = y, T_k = y T_{k-1} - T_{k-2}
    t_prev = IntPolynomial([2])
    t_cur = IntPolynomial([0, 1])
    h = IntPolynomial([a[m]])
    for k in range(1, m + 1):
        h = h + IntPolynomial([a[m + k]]) * t_cur
        t_prev, t_cur = t_cur, IntPolynomial([0, 1]) * t_cur + (-t_prev)
    return h


def has_unit_modulus_root(p: IntPolynomial) -> bool:
    """Exact test: does p have a complex root on the unit circle?"""
    if p.is_zero:
        raise ValueError("zero polynomial")
    _, p = p.shift_down()
    if p.degree < 1:
        return False
    if p(Fraction(1)) == 0 or p(Fraction(-1)) == 0:
        return True
    g = poly_gcd(p, p.reciprocal())
    g = _strip_unit_factors(g)
    if g.degree < 1:
        return False
    if g.degree % 2 == 1 or g.coeffs != tuple(reversed(g.coeffs)):
        # an anti-palindromic self-reciprocal factor would carry x = +-1,
        # and those were already stripped
        raise RuntimeError("unexpected non-palindromic self-reciprocal gcd")
    h = squarefree_part(_chebyshev_like_transform(g))
    lo, hi = Fraction(-2), Fraction(2)
    if h(lo) == 0 or h(hi) == 0:
        raise RuntimeError("unit factors were not fully stripped")
    return sturm_count(h, lo, hi) > 0
