"""Subresonance relations and the dimension of the polynomial group SR_chi.

For a contracting element with distinct negative Lyapunov exponents
chi_1 > ... > chi_l (multiplicities m_1..m_l), a subresonance index (i, s)
records that degree-s polynomial terms may map into the i-th block:
chi_i <= sum_j s_j chi_j.  The sum runs over all j, so the identity linear
term s = e_i is always admissible.  Exponents may be exact rationals or
refinable log-linear values, and each spectrum is ordered one way: by
integer keys when it is rational, by certified signs otherwise, where
boundary cases that exact arithmetic cannot settle raise UndecidedBoundary.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CAP
from .errors import InputError, PrecisionExhausted, UndecidedBoundary
from .linalg import integral
from .logval import LogLinearValue


def _as_value(x) -> LogLinearValue:
    if isinstance(x, LogLinearValue):
        return x
    return LogLinearValue.from_rational(Fraction(x))


def _ordering(exponents, cap: int):
    """(keys, zero, below): the exponents as keys, the key of 0, and the
    strict order of keys, decided in one way per spectrum.  A rational
    spectrum is scaled to integers by the common denominator of its
    exponents, which keeps every comparison and tie, and compared with <;
    a log-linear one is compared by the certified sign of the difference,
    where an unresolved sign at the precision cap raises UndecidedBoundary.
    """
    if all(not e.terms for e in exponents):
        (keys,), _ = integral([[e.const for e in exponents]])
        return keys, 0, operator.lt

    def below(a: LogLinearValue, b: LogLinearValue) -> bool:
        try:
            return (a - b).sign(cap) < 0
        except PrecisionExhausted as exc:
            raise UndecidedBoundary(exc.bits) from exc

    return exponents, LogLinearValue.from_rational(0), below


@dataclass(frozen=True)
class ContractionSpectrum:
    """Strictly decreasing negative exponents with multiplicities."""

    exponents: tuple
    multiplicities: tuple[int, ...]

    @classmethod
    def build(
        cls, exponents, multiplicities, cap: int = DEFAULT_CAP
    ) -> "ContractionSpectrum":
        vals = tuple(_as_value(x) for x in exponents)
        mults = tuple(int(m) for m in multiplicities)
        if not vals or len(vals) != len(mults):
            raise InputError("exponents and multiplicities must align")
        if any(m < 1 for m in mults):
            raise InputError("multiplicities must be positive")
        chis, zero, below = _ordering(vals, cap)
        if not all(below(x, zero) for x in chis):
            raise InputError("exponents must be strictly negative")
        if not all(below(b, a) for a, b in zip(chis, chis[1:])):
            raise InputError("exponents must be strictly decreasing")
        return cls(vals, mults)

    @property
    def blocks(self) -> int:
        return len(self.exponents)


@dataclass(frozen=True)
class SubresonanceIndex:
    """Target block i and monomial degrees s with chi_i <= sum s_j chi_j."""

    target: int
    degrees: tuple[int, ...]


def subresonance_indices(
    spec: ContractionSpectrum, cap: int = DEFAULT_CAP
) -> list[SubresonanceIndex]:
    """Complete enumeration of subresonance indices, targets in order and
    degree vectors in lexicographic order.

    Depth-first over s_0, s_1, ... carrying the partial sum sum_j s_j chi_j.
    Every chi_j is strictly negative, so the partial sum only falls as an
    s_j grows or the search goes deeper: once it drops below chi_i, no
    larger s_j and no extension can recover, and the loop over s_j stops.
    The search is therefore finite, and every leaf it reaches is admissible
    without a further test.  Sums are compared by the spectrum's one
    ordering (_ordering), where an exact tie counts as admissible.
    """
    chis, zero, below = _ordering(spec.exponents, cap)
    l = spec.blocks
    out: list[SubresonanceIndex] = []
    s = [0] * l
    for i, chi_i in enumerate(chis):

        def rec(j: int, total) -> None:
            if j == l:
                if any(s):
                    out.append(SubresonanceIndex(i, tuple(s)))
                return
            while True:
                rec(j + 1, total)
                total = total + chis[j]
                if below(total, chi_i):
                    break
                s[j] += 1
            s[j] = 0

        rec(0, zero)
    return out


def _multichoose(n: int, r: int) -> int:
    return math.comb(n + r - 1, r)


def _dimension(spec: ContractionSpectrum, indices) -> int:
    """sum over indices (i, s) of m_i * prod_j multichoose(m_j, s_j)."""
    total = 0
    for idx in indices:
        count = spec.multiplicities[idx.target]
        for m, s in zip(spec.multiplicities, idx.degrees):
            count *= _multichoose(m, s)
        total += count
    return total


def sr_group_dimension(
    spec: ContractionSpectrum, cap: int = DEFAULT_CAP
) -> int:
    """Dimension of the space of subresonance polynomial maps:
    sum over indices (i, s) of m_i * prod_j multichoose(m_j, s_j)."""
    return _dimension(spec, subresonance_indices(spec, cap))
