"""Exact unit-circle test for the roots of integer polynomials.

has_unit_modulus_root decides whether some complex root of p has modulus
one: roots on the unit circle come in reciprocal pairs, so they are roots of
gcd(p, reciprocal p).  A root x = +-1 of p answers at once; otherwise that
gcd, which divides p, has no root +-1, so being self-reciprocal it is
palindromic of even degree, and x + 1/x maps its unit-circle roots onto real
roots in (-2, 2), which a Sturm count detects.  Everything is exact integer
polynomial arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .intpoly import IntPolynomial, poly_gcd, squarefree_part, sturm_count


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
    if g.degree < 1:
        return False
    if g.degree % 2 == 1 or g.coeffs != tuple(reversed(g.coeffs)):
        # an odd or anti-palindromic self-reciprocal g has a root x = +-1,
        # which g, a divisor of p, cannot have
        raise RuntimeError("self-reciprocal gcd is not palindromic of even degree")
    h = squarefree_part(_chebyshev_like_transform(g))
    lo, hi = Fraction(-2), Fraction(2)
    if h(lo) == 0 or h(hi) == 0:
        # h(+-2) = 0 exactly when g(+-1) = 0
        raise RuntimeError("gcd has a root x = +-1")
    return sturm_count(h, lo, hi) > 0
