"""Exact real algebraic numbers: irreducible minimal polynomial + root index.

A value is pinned down by its minimal polynomial over Q (primitive integer
coefficients, positive leading coefficient) and the index of the root among
the ascending real roots of that polynomial.  Equality is therefore a tuple
comparison.  Ordering and enclosures come from dyadic cells of the isolating
interval: a fixed-point Newton approximation picks the cell, and exact
integer signs at its two ends certify it, with bisection as the fallback.

A `Modulus` is a positive real algebraic number known first by a certified
enclosure, the root disk of its place, and identified as a `RealAlgebraic`
only when an exact test or a precision past the disks' asks for it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Callable, Sequence

from .config import INITIAL_BITS, REPORT_BITS, precisions
from .errors import PrecisionExhausted
from .intpoly import (
    IntPolynomial,
    composed_product_poly,
    factor_cached,
    isolate_real_roots,
    power_poly,
    safe_endpoint,
    sign_at,
    sturm_count,
)

# extra bits of the Newton approximation below the target cell width
_GUARD_BITS = 32
# a jump is tried only when more halvings than this remain; fewer are
# bisected, and so are this many after a jump that failed
_MIN_NEWTON_HALVINGS = 32
# Newton steps at the low precision before a jump is given up
_MAX_SETTLING_STEPS = 64
# last precision at which from_enclosure tries to identify its root
_IDENTIFY_CAP = 1 << 20
# a disk enclosure at bits is rounded outward on the grid 2^-(bits + this)
_GRID_GUARD = 4


@lru_cache(maxsize=4096)
def _isolations(coeffs: tuple[int, ...]) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(isolate_real_roots(IntPolynomial(coeffs)))


class RealAlgebraic:
    """A real algebraic number with exact comparisons and refinable enclosure.

    `poly` is always irreducible over Q: the only constructors are
    `from_rational` (degree 1) and `_locate` on an irreducible factor.  So
    no rational point other than a degree-1 root is a root of `poly`, and
    the dyadic cells of the isolating interval never have a root on their
    boundary.
    """

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
        candidates: IntPolynomial | Sequence[IntPolynomial],
        enclosure: Callable[[int], tuple[Fraction, Fraction]],
    ) -> "RealAlgebraic":
        """Identify the real root of `candidates` lying in a shrinking enclosure.

        `enclosure(bits)` must return a rational interval that always contains
        the target value, with width shrinking as bits grows; the target must
        be a root of `candidates`, a polynomial or a sequence of them (whose
        irreducible factors are then taken once each).
        """
        if isinstance(candidates, IntPolynomial):
            candidates = (candidates,)
        factors = list(dict.fromkeys(f for c in candidates for f, _ in factor_cached(c)))
        for bits in precisions(_IDENTIFY_CAP):
            lo, hi = enclosure(bits)
            hits = []
            for f in factors:
                if f.degree < 1:
                    continue
                # endpoints moved off roots of f, by steps far below the width
                eps = (hi - lo) / 65537
                a, b = safe_endpoint(f, lo, -eps), safe_endpoint(f, hi, eps)
                n = sturm_count(f, a, b)
                if n:
                    hits.append((f, n, a, b))
            if len(hits) == 1 and hits[0][1] == 1:
                f, _, a, b = hits[0]
                return cls._locate(f, a, b)
        raise PrecisionExhausted("could not isolate algebraic value", _IDENTIFY_CAP)

    @classmethod
    def _locate(cls, poly: IntPolynomial, lo: Fraction, hi: Fraction) -> "RealAlgebraic":
        """poly irreducible; (lo, hi) contains exactly one of its real roots,
        and lo is not a root.

        Every real root lies above the lower end `first` of the first
        canonical interval, so the index of the root is the number of roots
        in (first, lo)."""
        first = _isolations(poly.coeffs)[0][0]
        return cls(poly, sturm_count(poly, first, lo) if lo > first else 0)

    # -- the interface a Modulus shares ----------------------------------------
    @property
    def algebraic(self) -> "RealAlgebraic":
        return self

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
        """Enclosure of width <= 2^-bits; refinements are kept.

        The result is the cell that halving the stored interval until it is
        narrow enough would reach.  That cell is unique, since no cell
        boundary is a root, so it is the same whichever path finds it.
        """
        if self.is_rational:
            v = self.as_rational()
            return v, v
        lo, hi = self._lo, self._hi
        m = _halvings(hi - lo, bits)
        if not m:
            return lo, hi
        # isolating intervals of simple real roots of the irreducible
        # minimal polynomial always show a sign change
        coeffs = self.poly.coeffs
        slo = sign_at(coeffs, lo)
        while m:
            if m > _MIN_NEWTON_HALVINGS:
                cell = _newton_cell(coeffs, lo, hi, slo, m)
                if cell is not None:
                    lo, hi = cell
                    break
            for _ in range(min(m, _MIN_NEWTON_HALVINGS)):
                mid = (lo + hi) / 2
                if sign_at(coeffs, mid) == slo:
                    lo = mid
                else:
                    hi = mid
                m -= 1
        self._lo, self._hi = lo, hi
        return lo, hi

    # -- equality ------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            return self.is_rational and self.as_rational() == Fraction(other)
        if not isinstance(other, RealAlgebraic):
            return NotImplemented
        return self.poly.coeffs == other.poly.coeffs and self.index == other.index

    def __hash__(self):
        return hash((self.poly.coeffs, self.index))

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

    def pow(self, n: int) -> "RealAlgebraic":
        if n < 0:
            raise ValueError("negative exponent")
        if n == 0:
            return RealAlgebraic.from_rational(1)
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


class Modulus:
    """A positive real algebraic number at one place, identified on demand.

    It is a root of one of `candidates`, and `enclosure(bits)` is a
    certified enclosure of it that shrinks as bits grows, as the root disk
    of its place gives.  `interval(bits)` serves that enclosure, rounded
    outward on a dyadic grid and kept per bits, while bits <= REPORT_BITS
    and its lower end is positive.  Otherwise, and once the value is
    identified, it serves the cells of the identified value, which past
    REPORT_BITS are cheaper than disks.  `algebraic` identifies the value
    by `RealAlgebraic.from_enclosure` on first use.  Equality is identity,
    so log-linear terms are keyed by place; against a number it is exact.
    """

    __slots__ = ("_candidates", "_enclosure", "_cells", "_algebraic")

    def __init__(
        self,
        candidates: Sequence[IntPolynomial],
        enclosure: Callable[[int], tuple[Fraction, Fraction]],
    ):
        self._candidates = tuple(candidates)
        self._enclosure = enclosure
        self._cells: dict[int, tuple[Fraction, Fraction]] = {}
        self._algebraic: RealAlgebraic | None = None

    @property
    def algebraic(self) -> RealAlgebraic:
        if self._algebraic is None:
            self._algebraic = RealAlgebraic.from_enclosure(self._candidates, self._disk)
        return self._algebraic

    def _disk(self, bits: int) -> tuple[Fraction, Fraction]:
        cell = self._cells.get(bits)
        if cell is None:
            lo, hi = self._enclosure(bits)
            g = bits + _GRID_GUARD
            # floor and ceiling of lo 2^g and hi 2^g
            n_lo = (lo.numerator << g) // lo.denominator
            n_hi = -((-hi.numerator << g) // hi.denominator)
            cell = self._cells[bits] = (Fraction(n_lo, 1 << g), Fraction(n_hi, 1 << g))
        return cell

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        if self._algebraic is None and bits <= REPORT_BITS:
            cell = self._disk(bits)
            # a disk loose enough to reach 0 would leave log unbounded
            if cell[0] > 0:
                return cell
        return self.algebraic.interval(bits)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            lo, hi = self.interval(INITIAL_BITS)
            return lo <= other <= hi and self.algebraic == other
        return self is other

    __hash__ = object.__hash__


def _interval_mul(a: tuple[Fraction, Fraction], b: tuple[Fraction, Fraction]):
    products = [a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1]]
    return min(products), max(products)


def _halvings(width: Fraction, bits: int) -> int:
    """Least m >= 0 with width / 2^m <= 2^-bits.

    With k the difference of the bit lengths of num = width 2^bits and den,
    2^(k-1) < num/den < 2^(k+1): m is k or k + 1, or 0 when k < 0."""
    num, den = width.numerator << bits, width.denominator
    m = max(0, num.bit_length() - den.bit_length())
    if num > den << m:
        m += 1
    return m


def _newton_cell(
    coeffs: tuple[int, ...], lo: Fraction, hi: Fraction, slo: int, m: int
) -> tuple[Fraction, Fraction] | None:
    """The depth-m dyadic cell of (lo, hi) holding the root, or None.

    `slo` is the sign of the polynomial at lo, and -slo its sign at hi.
    Newton in integer fixed point approximates the root to well below the
    cell width w = (hi - lo)/2^m: first at a low precision until the steps
    are small, then once at each precision of a doubling schedule.  The cell
    of that approximation and its two neighbours are tested by exact signs
    at their ends, so a poor approximation costs time, never correctness:
    the caller bisects when None comes back.
    """
    width = hi - lo
    wn, wd = width.numerator, width.denominator
    # the midpoint is good to about `start` bits after the binary point
    start = max(wd.bit_length() - wn.bit_length(), 0)
    low = start + 2 * _GUARD_BITS
    precs = []
    s = start + m + _GUARD_BITS
    while s > low:
        precs.append(s)
        s = s // 2 + _GUARD_BITS // 2
    precs.reverse()
    dcoeffs = [i * c for i, c in enumerate(coeffs)][1:]
    ln, ld = lo.numerator, lo.denominator
    hn, hd = hi.numerator, hi.denominator

    def step(x: int, s: int) -> int | None:
        one = 1 << s
        pv, dv = coeffs[-1] * one, dcoeffs[-1] * one
        for c in reversed(coeffs[:-1]):
            pv = ((pv * x) >> s) + c * one
        for c in reversed(dcoeffs[:-1]):
            dv = ((dv * x) >> s) + c * one
        if not dv:
            return None
        x -= (pv << s) // dv
        if x * ld < ln << s or x * hd > hn << s:
            return None
        return x

    mid = (lo + hi) / 2
    x = (mid.numerator << low) // mid.denominator
    for _ in range(_MAX_SETTLING_STEPS):
        nx = step(x, low)
        if nx is None:
            return None
        settled = abs(nx - x) < 1 << _GUARD_BITS
        x = nx
        if settled:
            break
    else:
        return None
    s = low
    for prec in precs:
        x = step(x << (prec - s), prec)
        if x is None:
            return None
        s = prec
    # index of the depth-m cell holding x / 2^s
    j = (((x * ld - (ln << s)) * wd) << m) // ((ld * wn) << s)
    last = (1 << m) - 1
    for k in (j, j - 1, j + 1):
        if 0 <= k <= last:
            a = lo + Fraction(k * wn, wd << m)
            b = lo + Fraction((k + 1) * wn, wd << m)
            if sign_at(coeffs, a) == slo and sign_at(coeffs, b) == -slo:
                return a, b
    return None
