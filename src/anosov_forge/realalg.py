"""Exact real algebraic numbers: irreducible minimal polynomial + root index.

A value is pinned down by its minimal polynomial over Q (primitive integer
coefficients, positive leading coefficient) and the index of the root among
the ascending real roots of that polynomial.  Equality is therefore a tuple
comparison; ordering and enclosures come from bisection refinement.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import PrecisionExhausted
from .intpoly import (
    IntPolynomial,
    composed_product_poly,
    factor_cached,
    inverse_poly,
    isolate_real_roots,
    power_poly,
    sturm_count,
)


@lru_cache(maxsize=4096)
def _isolations(coeffs: tuple[int, ...]) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(isolate_real_roots(IntPolynomial(coeffs)))


class RealAlgebraic:
    """A real algebraic number with exact comparisons and refinable enclosure."""

    __slots__ = ("poly", "index", "_lo", "_hi")

    def __init__(self, poly: IntPolynomial, index: int):
        self.poly = poly.primitive()
        self.index = index
        iso = _isolations(self.poly.coeffs)
        if not 0 <= index < len(iso):
            raise ValueError(f"root index {index} out of range for {poly}")
        self._lo, self._hi = iso[index]

    # -- constructors -----------------------------------------------------
    @classmethod
    def from_rational(cls, value) -> "RealAlgebraic":
        f = Fraction(value)
        return cls(IntPolynomial([-f.numerator, f.denominator]), 0)

    @classmethod
    def from_enclosure(
        cls,
        candidates: IntPolynomial,
        enclosure: Callable[[int], tuple[Fraction, Fraction]],
        start_bits: int = 64,
        cap_bits: int = 1 << 20,
    ) -> "RealAlgebraic":
        """Identify the real root of `candidates` lying in a shrinking enclosure.

        `enclosure(bits)` must return a rational interval that always contains
        the target value, with width shrinking as bits grows; the target must
        be a root of `candidates`.
        """
        factors = [f for f, _ in factor_cached(candidates)]
        bits = start_bits
        while bits <= cap_bits:
            lo, hi = enclosure(bits)
            hits = []
            for f in factors:
                if f.degree < 1:
                    continue
                a, b = _nudge(f, lo, hi)
                n = sturm_count(f, a, b)
                if n:
                    hits.append((f, n, a, b))
            if len(hits) == 1 and hits[0][1] == 1:
                f, _, a, b = hits[0]
                return cls._locate(f, a, b)
            bits *= 2
        raise PrecisionExhausted("could not isolate algebraic value", cap_bits)

    @classmethod
    def _locate(cls, poly: IntPolynomial, lo: Fraction, hi: Fraction) -> "RealAlgebraic":
        """poly irreducible; (lo, hi) contains exactly one of its real roots."""
        iso = _isolations(poly.coeffs)
        for idx, (a, b) in enumerate(iso):
            # the unique root in (lo, hi) is the unique root in (a, b) iff the
            # overlapped window still counts one root
            lo2, hi2 = max(lo, a), min(hi, b)
            if lo2 < hi2:
                a2, b2 = _nudge(poly, lo2, hi2)
                if sturm_count(poly, a2, b2) == 1:
                    return cls(poly, idx)
        raise ValueError("enclosure does not match any canonical root interval")

    # -- rationality -------------------------------------------------------
    @property
    def is_rational(self) -> bool:
        return self.poly.degree == 1

    def as_rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError("not rational")
        return Fraction(-self.poly.coeffs[0], self.poly.coeffs[1])

    # -- enclosure ---------------------------------------------------------
    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosure of width <= 2^-bits; refinements are kept."""
        if self.is_rational:
            v = self.as_rational()
            return v, v
        target = Fraction(1, 2**bits)
        lo, hi = self._lo, self._hi
        if hi - lo <= target:
            return lo, hi
        # bisect on sign: isolating intervals of simple real roots of the
        # squarefree minimal polynomial always show a sign change
        p = self.poly
        slo = 1 if p(lo) > 0 else -1
        while hi - lo > target:
            mid = (lo + hi) / 2
            v = p(mid)
            if v == 0:
                eps = (hi - lo) / 1024
                lo, hi = mid - eps, mid + eps
                break
            if (1 if v > 0 else -1) == slo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi
        return lo, hi

    def sign(self) -> int:
        if self.is_rational:
            v = self.as_rational()
            return (v > 0) - (v < 0)
        bits = 8
        while True:
            lo, hi = self.interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_rational() == Fraction(other)
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return self.poly.coeffs == other.poly.coeffs and self.index == other.index

    def __hash__(self):
        return hash((self.poly.coeffs, self.index))

    def compare(self, other: "RealAlgebraic") -> int:
        if self == other:
            return 0
        bits = 16
        while True:
            alo, ahi = self.interval(bits)
            blo, bhi = other.interval(bits)
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            bits *= 2

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    # -- arithmetic ------------------------------------------------------------
    def mul(self, other: "RealAlgebraic") -> "RealAlgebraic":
        if self.is_rational and other.is_rational:
            return RealAlgebraic.from_rational(self.as_rational() * other.as_rational())
        if self.is_rational and self.as_rational() == 1:
            return other
        if other.is_rational and other.as_rational() == 1:
            return self
        composed = composed_product_poly(self.poly, other.poly)

        def enclosure(bits: int) -> tuple[Fraction, Fraction]:
            return _interval_mul(self.interval(bits), other.interval(bits))

        return RealAlgebraic.from_enclosure(composed, enclosure)

    def inverse(self) -> "RealAlgebraic":
        if self.is_rational:
            return RealAlgebraic.from_rational(1 / self.as_rational())
        inv = inverse_poly(self.poly)

        def enclosure(bits: int) -> tuple[Fraction, Fraction]:
            lo, hi = self.interval(bits)
            if lo <= 0 <= hi:
                # refine past zero; the value itself is nonzero
                lo, hi = self.interval(bits * 4)
                if lo <= 0 <= hi:
                    return Fraction(-(2 ** (bits // 2))), Fraction(2 ** (bits // 2))
            return 1 / hi, 1 / lo

        return RealAlgebraic.from_enclosure(inv, enclosure)

    def pow(self, n: int) -> "RealAlgebraic":
        if n == 0:
            return RealAlgebraic.from_rational(1)
        if n < 0:
            return self.inverse().pow(-n)
        if n == 1:
            return self
        if self.is_rational:
            return RealAlgebraic.from_rational(self.as_rational() ** n)
        powered = power_poly(self.poly, n)

        def enclosure(bits: int) -> tuple[Fraction, Fraction]:
            iv = self.interval(bits + 4 * n)
            out = (Fraction(1), Fraction(1))
            for _ in range(n):
                out = _interval_mul(out, iv)
            return out

        return RealAlgebraic.from_enclosure(powered, enclosure)

    def __repr__(self):
        lo, hi = self._lo, self._hi
        mid = float((lo + hi) / 2)
        return f"RealAlgebraic({self.poly}, root#{self.index} ~ {mid:.6g})"


def _interval_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(products), max(products)


def _nudge(p: IntPolynomial, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    """Move endpoints off roots of p without leaving (lo-eps, hi+eps) wide."""
    eps = (hi - lo) / 65537
    while p(lo) == 0:
        lo -= eps
    while p(hi) == 0:
        hi += eps
    return lo, hi
