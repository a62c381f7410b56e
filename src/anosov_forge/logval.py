"""Refinable linear combinations of logarithms of algebraic numbers.

Values of Lyapunov functionals at lattice points are rational combinations
of log-moduli, i.e. expressions  c0 + sum c_j * log(alpha_j)  with rational
c_j and positive real algebraic alpha_j.  Each alpha_j is a `RealAlgebraic`
or a `Modulus`, a place's modulus certified from its root disk; terms are
keyed by place, so equal moduli of two places stay two terms.  Signs are
decided by interval refinement; exact vanishing is certified algebraically
(two products of powers of the identified alpha_j, one over the positive
and one over the negative coefficients, are equal); a modulus is
identified there, or when its disks no longer serve.  A nonzero value with
c0 != 0 can never vanish (log of an algebraic number is transcendental
unless the argument is 1), so the refinement loop always terminates on true
nonzero inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CAP, INITIAL_BITS, precisions
from .errors import PrecisionExhausted
from .intpoly import IntPolynomial, cauchy_root_bound
from .numutil import log_interval
from .realalg import Modulus, RealAlgebraic

Algebraic = RealAlgebraic | Modulus


@dataclass(frozen=True)
class LogLinearValue:
    const: Fraction
    terms: tuple[tuple[Fraction, Algebraic], ...]

    @classmethod
    def build(
        cls,
        const=0,
        terms: list[tuple[Fraction, Algebraic]] | None = None,
    ) -> "LogLinearValue":
        """Like terms merged, in order of first appearance; zero sums and
        exact unit moduli dropped."""
        merged: dict[Algebraic, Fraction] = {}
        for coeff, alpha in terms or []:
            coeff = Fraction(coeff)
            if coeff == 0 or alpha == 1:
                continue
            # a Modulus is positive
            rational = isinstance(alpha, RealAlgebraic) and alpha.is_rational
            if rational and alpha.as_rational() <= 0:
                raise ValueError("log of non-positive value")
            merged[alpha] = merged.get(alpha, 0) + coeff
        return cls(Fraction(const), tuple((c, a) for a, c in merged.items() if c != 0))

    @classmethod
    def from_rational(cls, value) -> "LogLinearValue":
        return cls.build(const=Fraction(value))

    @classmethod
    def half_log(cls, alpha: Algebraic) -> "LogLinearValue":
        """log|lambda| = (1/2) * log(|lambda|^2)."""
        return cls.build(terms=[(Fraction(1, 2), alpha)])

    # -- algebra -------------------------------------------------------------
    def __add__(self, other: "LogLinearValue") -> "LogLinearValue":
        return LogLinearValue.build(
            self.const + other.const, list(self.terms) + list(other.terms)
        )

    def __neg__(self) -> "LogLinearValue":
        return self.scale(-1)

    def __sub__(self, other: "LogLinearValue") -> "LogLinearValue":
        return self + (-other)

    def scale(self, c) -> "LogLinearValue":
        c = Fraction(c)
        return LogLinearValue.build(
            self.const * c, [(coeff * c, a) for coeff, a in self.terms]
        )

    # -- evaluation ------------------------------------------------------------
    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        lo = hi = self.const
        for coeff, alpha in self.terms:
            abits = bits
            alo, ahi = alpha.interval(abits)
            if alo <= 0:
                # alpha > 1/B for B the root bound of its reversed minimal
                # polynomial: an enclosure 2^-bits/B wide lies above 0 and
                # pins log(alpha) about as well as 2^-bits.  A Modulus
                # serves no disk that reaches 0, so it is identified here
                poly = alpha.algebraic.poly
                bound = cauchy_root_bound(IntPolynomial(poly.coeffs[::-1]))
                abits += math.ceil(bound).bit_length()
                alo, ahi = alpha.interval(abits)
            la, lb = log_interval(alo, ahi, abits)
            if coeff > 0:
                lo += coeff * la
                hi += coeff * lb
            else:
                lo += coeff * lb
                hi += coeff * la
        return lo, hi

    def is_exactly_zero(self) -> bool:
        """Certified vanishing test (no precision involved).

        With the coefficients scaled to integers n_j, the value vanishes
        iff prod_{n_j > 0} alpha_j^n_j = prod_{n_j < 0} alpha_j^-n_j: every
        alpha_j is positive, so no inverse is built."""
        if not self.terms:
            return self.const == 0
        if self.const != 0:
            # const + sum c_j log a_j = 0 would make exp(-const) algebraic
            return False
        den = math.lcm(*[c.denominator for c, _ in self.terms])
        pos = neg = RealAlgebraic.from_rational(1)
        for coeff, alpha in self.terms:
            n = int(coeff * den)
            if n > 0:
                pos = pos.mul(alpha.algebraic.pow(n))
            else:
                neg = neg.mul(alpha.algebraic.pow(-n))
        return pos == neg

    def vanishes(self) -> bool:
        """Exact zero test, run only when the enclosure at the initial
        precision holds 0: a value that separates from 0 there never builds
        the products of algebraic powers that the exact test multiplies out."""
        lo, hi = self.interval(INITIAL_BITS)
        return lo <= 0 <= hi and self.is_exactly_zero()

    def sign(self, cap: int = DEFAULT_CAP) -> int:
        """Exact sign: -1, 0, +1.  Raises PrecisionExhausted when no
        precision of precisions(cap) settles it."""
        if not self.terms:
            return (self.const > 0) - (self.const < 0)
        # intervals first: the exact vanishing test builds power/product
        # polynomials and is far more expensive than a few refinements
        checked_zero = False
        for bits in precisions(cap):
            lo, hi = self.interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            # the exact test runs by 256 bits, or at a lower cap's last step
            if not checked_zero and (bits >= 256 or bits == cap):
                if self.vanishes():
                    return 0
                checked_zero = True
        raise PrecisionExhausted("sign of log-linear value unresolved", cap)

    def midpoint(self, bits: int = 64) -> Fraction:
        lo, hi = self.interval(bits)
        return (lo + hi) / 2
