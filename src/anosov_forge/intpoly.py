"""Dense integer polynomials and exact Sturm-chain root counting.

Coefficients are stored lowest degree first.  Gcds are primitive
pseudo-remainder sequences over Z; factorisation over Q is Zassenhaus's
(zassenhaus.py), on the squarefree part.  Composed polynomials, whose roots
are products r*s or powers r^n of roots, come from power sums by Newton's
identities in integers; `resultant_y` computes the same polynomials by a
sympy resultant, as a reference for tests.  The Sturm machinery is done
directly on integer coefficient lists so that sign counts stay exact.  Signs at rational points come from `sign_at`, one integer
Horner pass with no `Fraction` arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from .errors import EndpointRoot
from .zassenhaus import (
    exact_quotient,
    factor_squarefree,
    gcd_mod,
    primitive,
    trim,
    zadd,
    zmul,
)


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients lowest degree first."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", tuple(trim([int(c) for c in coeffs])))

    # -- basic structure ------------------------------------------------
    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if self.is_zero:
            return 0
        return self.coeffs[-1]

    def __call__(self, value):
        acc = value - value if not isinstance(value, (int, Fraction)) else 0
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def primitive(self) -> "IntPolynomial":
        """Divide by content and normalise the leading coefficient positive."""
        return IntPolynomial(primitive(self.coeffs)) if self.coeffs else self

    def reciprocal(self) -> "IntPolynomial":
        """x^deg * p(1/x)."""
        return IntPolynomial(list(reversed(self.coeffs)))

    def shift_down(self) -> tuple[int, "IntPolynomial"]:
        """Split off the x^v factor: returns (v, p/x^v)."""
        v = 0
        c = list(self.coeffs)
        while c and c[0] == 0:
            c.pop(0)
            v += 1
        return v, IntPolynomial(c)

    # -- arithmetic ------------------------------------------------------
    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(zmul(self.coeffs, other.coeffs))

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        return IntPolynomial(zadd(self.coeffs, other.coeffs))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c:
                parts.append(f"{c}*x^{i}" if i else f"{c}")
        return " + ".join(parts)


def sign_at(coeffs: Sequence[int], x) -> int:
    """Sign of the polynomial with these coefficients at the rational x.

    For x = n/d with d > 0 this is the sign of sum(c_i n^i d^(deg-i)),
    evaluated by Horner on integers; it is 0 exactly at a root.
    """
    if not coeffs:
        return 0
    n, d = x.numerator, x.denominator
    acc, dpow = coeffs[-1], 1
    for c in reversed(coeffs[:-1]):
        dpow *= d
        acc = acc * n + c * dpow
    return (acc > 0) - (acc < 0)


# a prime for the coprimality test of poly_gcd
_GCD_PRIME = (1 << 61) - 1


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """lc(b)^(deg a - deg b + 1) * a mod b, in Z[x]."""
    n, lc = len(b) - 1, b[-1]
    r = list(a)
    for k in range(len(r) - 1, n - 1, -1):
        c = r[k]
        r = [x * lc for x in r[:k]]
        if c:
            for i in range(n):
                r[k - n + i] -= c * b[i]
    return trim(r)


def _coprime_mod_prime(a: Sequence[int], b: Sequence[int]) -> bool:
    """True when a and b are coprime modulo _GCD_PRIME, which does not
    divide lc(a): then they are coprime over Q."""
    p = _GCD_PRIME
    bp = trim([c % p for c in b])
    if a[-1] % p == 0 or not bp:
        return False
    return len(gcd_mod([c % p for c in a], bp, p)) == 1


def poly_gcd(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q with a positive leading coefficient, by the
    primitive pseudo-remainder sequence; a gcd of 1 modulo a large prime
    ends it at once."""
    a, b = p.primitive().coeffs, q.primitive().coeffs
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return IntPolynomial(a)
    if _coprime_mod_prime(a, b):
        return IntPolynomial([1])
    a, b = list(a), list(b)
    while b:
        a, b = b, _pseudo_remainder(a, b)
        if b:
            g = math.gcd(*b)
            b = [c // g for c in b]
    return IntPolynomial(a).primitive()


def squarefree_part(p: IntPolynomial) -> IntPolynomial:
    g = poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.primitive()
    return IntPolynomial(exact_quotient(p.coeffs, g.coeffs)).primitive()


def factor_rational(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Irreducible factorisation over Q: primitive integer factors with
    positive leading coefficients and their multiplicities, sorted by
    degree, then multiplicity, then the coefficients from the top down (the
    order of sympy's factor_list)."""
    if p.is_zero:
        raise ValueError("the zero polynomial has no factorisation")
    whole = p.primitive()
    v, f = whole.shift_down()
    out = [((0, 1), v)] if v else []
    if f.degree >= 1:
        sf = squarefree_part(f)
        for g in factor_squarefree(list(sf.coeffs)):
            mult = 1
            if sf != f:
                rest = exact_quotient(f.coeffs, g)
                while (rest := exact_quotient(rest, g)) is not None:
                    mult += 1
            out.append((tuple(g), mult))
    out.sort(key=lambda fm: (len(fm[0]), fm[1], fm[0][::-1]))
    factors = [(IntPolynomial(c), m) for c, m in out]
    product = IntPolynomial([1])
    for g, m in factors:
        for _ in range(m):
            product = product * g
    assert product == whole, "factorisation does not multiply back"
    return factors


@lru_cache(maxsize=4096)
def _factor_cached(coeffs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    out = factor_rational(IntPolynomial(coeffs))
    return tuple((f.coeffs, m) for f, m in out)


def factor_cached(p: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    return [(IntPolynomial(c), m) for c, m in _factor_cached(p.coeffs)]


def resultant_y(p: IntPolynomial, other) -> IntPolynomial:
    """Res_x(p(x), other(x, y)) as an integer polynomial in y, for a sympy
    expression `other`; sympy is imported here, for the reference tests."""
    import sympy
    from sympy.abc import x, y

    px = sympy.Poly(list(reversed(p.coeffs)) or [0], x).as_expr()
    r = sympy.Poly(sympy.expand(sympy.resultant(px, other, x)), y)
    coeffs = [sympy.Rational(c) for c in reversed(r.all_coeffs())]
    den = math.lcm(*(int(c.q) for c in coeffs))
    return IntPolynomial(int(c * den) for c in coeffs)


def scaled_monic(p: IntPolynomial) -> tuple[int, ...]:
    """lc^(d-1) p(x/lc): monic with integer coefficients, and its roots are
    lc times the roots of p (lc the leading coefficient, d >= 1 the degree)."""
    d, lc = p.degree, p.leading
    return tuple(c * lc ** (d - 1 - i) for i, c in enumerate(p.coeffs[:-1])) + (1,)


def power_sums(monic: Sequence[int], n: int) -> list[int]:
    """Power sums t_0..t_n of the roots of a monic integer polynomial,
    with multiplicity, by Newton's identities."""
    d = len(monic) - 1
    e = monic[::-1]  # e[i] is the coefficient of x^(d-i)
    t = [d]
    for k in range(1, n + 1):
        acc = k * e[k] if k <= d else 0
        for i in range(1, min(k - 1, d) + 1):
            acc += e[i] * t[k - i]
        t.append(-acc)
    return t


def poly_from_power_sums(sums: Sequence[int], scale: int) -> IntPolynomial:
    """Primitive polynomial of the D = len(sums) - 1 numbers theta, given
    the power sums sums[k] of scale*theta (integers, since scale*theta are
    algebraic integers).  Newton's identities give the monic polynomial of
    scale*theta, whose integer coefficients are scaled back."""
    big_d = len(sums) - 1
    e = [1]
    for k in range(1, big_d + 1):
        acc = sums[k]
        for i in range(1, k):
            acc += e[i] * sums[k - i]
        q, r = divmod(-acc, k)
        assert r == 0, "power sums of non-integral values"
        e.append(q)
    # prod (y - scale*theta) = sum e[k] y^(D-k), with y = scale*x
    coeffs, power = [], 1
    for j in range(big_d + 1):
        coeffs.append(e[big_d - j] * power)
        power *= scale
    return IntPolynomial(coeffs).primitive()


def composed_product_poly(p: IntPolynomial, q: IntPolynomial) -> IntPolynomial:
    """Polynomial with roots {r*s : p(r) = 0, q(s) = 0}, with multiplicity.

    The products (lc_p r)(lc_q s) of the roots of the scaled monic
    polynomials have power sums s_k(p) s_k(q) (Bostan-Flajolet-Salvy-Schost).
    """
    big_d = p.degree * q.degree
    sp = power_sums(scaled_monic(p), big_d)
    sq = power_sums(scaled_monic(q), big_d)
    return poly_from_power_sums([a * b for a, b in zip(sp, sq)], p.leading * q.leading)


def pair_product_parts(p: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
    """Polynomials of the squares r_i^2 and of the cross products r_i r_j
    (i < j) of the roots of p, with multiplicity.

    Their roots hold lambda * conj(lambda) = |lambda|^2 for every root
    lambda, since integer polynomials are conjugation closed.  With S_k the
    power sums of the scaled roots lc*r, the squares have power sums S_2k
    and the cross products (S_k^2 - S_2k)/2.
    """
    d = p.degree
    big_d = d * (d - 1) // 2
    s = power_sums(scaled_monic(p), max(2 * d, 2 * big_d))
    scale = p.leading**2
    squares = poly_from_power_sums(s[: 2 * d + 1 : 2], scale)
    cross = poly_from_power_sums(
        [(s[k] * s[k] - s[2 * k]) // 2 for k in range(big_d + 1)], scale
    )
    return squares, cross


def power_poly(p: IntPolynomial, n: int) -> IntPolynomial:
    """Polynomial with roots {r^n : p(r) = 0}, n >= 1: the k-th power sum
    of (lc r)^n is the (n k)-th power sum of lc r."""
    t = power_sums(scaled_monic(p), n * p.degree)
    return poly_from_power_sums(t[::n], p.leading**n)


# -- Sturm chains -------------------------------------------------------


@lru_cache(maxsize=4096)
def sturm_chain(coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of the squarefree part, primitive integer rows.

    Each row is -(a mod b) up to a positive factor: the pseudo-remainder
    is lc(b)^(deg a - deg b + 1) (a mod b), so its sign flips back when that
    power is negative."""
    p = squarefree_part(IntPolynomial(coeffs))
    chain = [list(p.coeffs), list(p.derivative().coeffs)]
    while chain[-1]:
        a, b = chain[-2], chain[-1]
        rem = _pseudo_remainder(a, b)
        if not rem:
            break
        flip = -1 if b[-1] < 0 and (len(a) - len(b)) % 2 == 0 else 1
        g = -flip * math.gcd(*rem)
        chain.append([c // g for c in rem])
    return tuple(tuple(row) for row in chain)


def _sign_changes(values: list[int]) -> int:
    signs = [v for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def sturm_count(p: IntPolynomial, lo: Fraction, hi: Fraction) -> int:
    """Number of distinct real roots of p in the open interval (lo, hi).

    Raises EndpointRoot when an endpoint is itself a root; callers perturb.
    """
    if lo >= hi:
        raise ValueError("need lo < hi")
    if p.is_zero:
        raise ValueError("zero polynomial")
    chain = sturm_chain(p.coeffs)
    at_lo = [sign_at(row, lo) for row in chain]
    at_hi = [sign_at(row, hi) for row in chain]
    if at_lo[0] == 0 or at_hi[0] == 0:
        raise EndpointRoot(f"root at endpoint of ({lo}, {hi})")
    return _sign_changes(at_lo) - _sign_changes(at_hi)


def cauchy_root_bound(p: IntPolynomial) -> Fraction:
    """All complex roots have modulus < this bound."""
    if p.degree < 1:
        return Fraction(1)
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


def safe_endpoint(p: IntPolynomial, v: Fraction, step: Fraction) -> Fraction:
    """The first of v, v + step, v + 2 step, ... that is not a root of p."""
    while sign_at(p.coeffs, v) == 0:
        v += step
    return v


def real_root_window(p: IntPolynomial) -> tuple[Fraction, Fraction]:
    """(lo, hi) around every real root of p, neither of them a root."""
    bound = cauchy_root_bound(p)
    return safe_endpoint(p, -bound, Fraction(-1, 7)), safe_endpoint(p, bound, Fraction(1, 7))


def isolate_real_roots(p: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the distinct real roots, ascending.

    Endpoints are never roots of p.
    """
    p = squarefree_part(p)
    if p.degree < 1:
        return []
    lo, hi = real_root_window(p)
    total = sturm_count(p, lo, hi)
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        mid = safe_endpoint(p, (a + b) / 2, (b - a) / 257)
        left = sturm_count(p, a, mid)
        recurse(a, mid, left)
        recurse(mid, b, count - left)

    recurse(lo, hi, total)
    out.sort(key=lambda iv: iv[0])
    return out
