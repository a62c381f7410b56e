"""Validated numeric helpers: root disks, interval logs, rational radicals.

Everything here returns rational (Fraction) bounds that provably contain the
true value; approximations are fast, the certification is exact.
Interval logs are directed-rounding libmp bounds, each moved two units in
the last place outward, at a working precision of 16 bits past the larger
of the requested bits and the cell's own -log2(hi - lo); they are memoised
per endpoint pair and working precision.  Root disks use the Newton
inclusion radius d*|f(z)/f'(z)|, evaluated exactly at approximations from
an Aberth iteration: a start in hardware floats, then mpmath sweeps only a
few dozen bits past the requested accuracy; square roots are rounded on
the requested grid.  Disks are compared, and polynomials evaluated at
their centres, in (Gaussian) integers on one dyadic grid 2^-s.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import mpmath
from mpmath.libmp import from_rational, mpf_log, round_ceiling, round_floor

from .intpoly import IntPolynomial


def _raw_mpf_to_fraction(raw) -> Fraction:
    sign, man, exp, _ = raw
    if man == 0 and exp == 0:
        return Fraction(0)
    m = -man if sign else man
    if exp >= 0:
        return Fraction(m * (1 << exp))
    return Fraction(m, 1 << (-exp))


def mpf_to_fraction(v) -> Fraction:
    """Exact conversion of an mpmath binary float."""
    return _raw_mpf_to_fraction(v._mpf_)


def sqrt_bounds(v: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo <= sqrt(v) <= hi on the grid 2^-bits, so hi - lo <= 2^-bits."""
    if v < 0:
        raise ValueError("negative radicand")
    if v == 0:
        return Fraction(0), Fraction(0)
    # integer sqrt of the scaled value gives directed bounds
    r = math.isqrt((v.numerator << (2 * bits)) // v.denominator)
    return Fraction(r, 1 << bits), Fraction(r + 1, 1 << bits)


def log_interval(lo: Fraction, hi: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Certified enclosure of [log lo, log hi] for 0 < lo <= hi.

    The working precision is 16 + max(bits, cell), with cell about
    -log2(hi - lo), read off the bit lengths of the width (1 when
    lo = hi).  A request for fewer bits than the cell carries gets the
    cell's precision, not the endpoints' sizes, which are about twice the
    cell: the result is at most (hi - lo)/lo + 2^-bits wide, and
    log hi - log lo <= (hi - lo)/lo already."""
    if lo <= 0:
        raise ValueError("log of non-positive interval")
    # the result depends on (lo, hi, prec) alone; requests for fewer bits
    # than the cell meet at one prec and one memo entry
    width = hi - lo
    cell = width.denominator.bit_length() - width.numerator.bit_length()
    return _log_bounds(lo, hi, 16 + max(bits, cell))


@lru_cache(maxsize=1024)
def _log_bounds(lo: Fraction, hi: Fraction, prec: int) -> tuple[Fraction, Fraction]:
    """log lo rounded down and log hi rounded up at prec bits, each after
    a quotient rounded the same way, then moved two units in the last
    place outward.

    The quotients are correctly rounded, but mpf_log rounds a fixed-point
    approximation that is off by less than one unit in the last place, so
    its directed rounding can land one unit on the wrong side of the log
    (log(1 + 2^-25) at 30 to 33 bits rounds up to 2^-25 - 2^-51, below
    it).  Two units outward cover that."""
    a = mpf_log(from_rational(lo.numerator, lo.denominator, prec, round_floor), prec, round_floor)
    b = mpf_log(from_rational(hi.numerator, hi.denominator, prec, round_ceiling), prec, round_ceiling)
    return _outward(a, prec, -2), _outward(b, prec, 2)


def _outward(raw, prec: int, units: int) -> Fraction:
    """The libmp value raw plus `units` units in the last place of a
    prec-bit mantissa; an exact zero (log 1) stays 0."""
    sign, man, exp, bc = raw
    if not man:
        return Fraction(0)
    # raw = m 2^e with m a prec-bit mantissa
    e = exp + bc - prec
    m = ((-man if sign else man) << (prec - bc)) + units
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


@lru_cache(maxsize=1024)
def certified_root_disks(
    coeffs: tuple[int, ...], bits: int
) -> tuple[tuple[Fraction, Fraction, Fraction], ...]:
    """Pairwise disjoint disks (re, im, radius), one around each root.

    The polynomial must be squarefree.  Each disk provably contains exactly
    one root; radii are at most 2^-bits.  Deterministic for fixed inputs.

    The approximations come from an Aberth-Ehrlich iteration: sweeps in
    hardware doubles from points on a circle, then sweeps in mpmath at the
    working precision, which doubles whenever a budget of sweeps ends
    uncertified (a coefficient beyond float range skips the float start).
    The certificate after each sweep is exact: a disk of radius
    d*|f(z)/f'(z)| around any z holds a root of the degree-d polynomial f
    (Newton's inclusion bound), so d pairwise disjoint such disks hold
    exactly one root each.
    """
    p = IntPolynomial(coeffs)
    d = p.degree
    if d < 1:
        return ()
    dcoeffs = p.derivative().coeffs
    # absolute accuracy 2^-bits needs the roots' size and log d on top
    size = max(abs(c) for c in coeffs[:-1]) // abs(p.leading) + 2
    prec = bits + size.bit_length() + 2 * d.bit_length() + 16
    target = Fraction(1, 1 << bits)
    e, units = _start_circle(coeffs)
    zs = _float_start(coeffs, e, units)
    while prec <= 1 << 22:
        with mpmath.workprec(prec):
            if zs is None:
                zs = [mpmath.mpc(mpmath.ldexp(u.real, e), mpmath.ldexp(u.imag, e)) for u in units]
            a = [mpmath.mpf(c) for c in reversed(coeffs)]
            da = [mpmath.mpf(c) for c in reversed(dcoeffs)]
            zs = [mpmath.mpc(z) for z in zs]
            for _ in range(_MP_SWEEPS):
                _aberth_sweep(a, da, zs)
                disks = _certify(coeffs, dcoeffs, zs, prec, target)
                if disks is not None:
                    return disks
        prec *= 2
    raise RuntimeError("root refinement failed to converge")


# Aberth-Ehrlich iteration (Aberth, Math. Comp. 27, 1973; Bini, Numer.
# Algorithms 13, 1996): sweep budgets, and the relative correction at
# which the float sweeps stop
_FLOAT_SWEEPS = 64
_MP_SWEEPS = 16
_FLOAT_TOL = 2.0**-44


def _start_circle(coeffs: tuple[int, ...]) -> tuple[int, list[complex]]:
    """(e, units): d start points 2^e u_k, with u_k on the unit circle off
    the axes and 2^e about max |a_i/a_d|^(1/(d-i)), the size of the
    largest roots."""
    d = len(coeffs) - 1
    lead = math.log2(abs(coeffs[-1]))
    e = max(
        (math.ceil((math.log2(abs(c)) - lead) / (d - i)) for i, c in enumerate(coeffs[:-1]) if c),
        default=0,
    )
    angles = (2 * math.pi * k / d + 0.4 for k in range(d))
    return e, [complex(math.cos(t), math.sin(t)) for t in angles]


def _float_start(coeffs: tuple[int, ...], e: int, units: list[complex]) -> list[complex] | None:
    """Aberth sweeps in hardware doubles from the circle, until every
    correction is below 2^-44 relative or the budget ends; None when a
    coefficient, the circle or an iterate leaves float range."""
    try:
        a = [float(c) for c in reversed(coeffs)]
        r = math.ldexp(1.0, e)
        da = [c * (len(a) - 1 - i) for i, c in enumerate(a[:-1])]
        zs = [r * u for u in units]
        for _ in range(_FLOAT_SWEEPS):
            small = _aberth_sweep(a, da, zs, _FLOAT_TOL)
            if not all(math.isfinite(z.real) and math.isfinite(z.imag) for z in zs):
                return None
            if small:
                break
    except (OverflowError, ZeroDivisionError):
        return None
    return zs


def _aberth_sweep(a: list, da: list, zs: list, tol=0) -> bool:
    """One Gauss-Seidel sweep z_k -= N/(1 - N sum_j 1/(z_k - z_j)), with N
    = f/f'(z_k), in place; a and da are the coefficients of f and f',
    highest first, as complex or mpmath numbers.  True when every
    correction is at most tol times its new iterate."""
    small = True
    for k, z in enumerate(zs):
        f = a[0]
        for c in a[1:]:
            f = f * z + c
        if not f:
            continue
        fp = da[0]
        for c in da[1:]:
            fp = fp * z + c
        s = 0
        for j, w in enumerate(zs):
            if j != k:
                s += 1 / (z - w)
        step = f / (fp - f * s)
        zs[k] = z - step
        if small and abs(step) > tol * abs(zs[k]):
            small = False
    return small


def _certify(coeffs, dcoeffs, zs, prec: int, target: Fraction):
    """Disks around the iterates zs, sorted, when every Newton radius is
    at most target and the disks are pairwise disjoint; else None."""
    disks = []
    for z in zs:
        re = mpf_to_fraction(z.real)
        im = mpf_to_fraction(z.imag)
        radius = _newton_radius(coeffs, dcoeffs, re, im, prec)
        if radius is None or radius > target:
            return None
        disks.append((re, im, radius))
    if not _pairwise_disjoint(disks):
        return None
    disks.sort(key=lambda t: (t[0], t[1]))
    return tuple(disks)


def dyadic_numerators(rows) -> tuple[int, list[tuple[int, ...]]]:
    """(s, rows times 2^s): tuples of dyadic Fractions as integers on the
    common grid 2^-s, with 2^s their largest denominator."""
    s = max(x.denominator.bit_length() for r in rows for x in r)
    return s - 1, [tuple(x.numerator << s - x.denominator.bit_length() for x in r) for r in rows]


def gaussian_horner(coeffs, a: int, b: int, s: int) -> tuple[int, int]:
    """2^(s n) f(z) as a Gaussian integer, for the integer polynomial f of
    degree n = len(coeffs) - 1 (lowest coefficient first) at z = (a + ib)/2^s."""
    fr, fi = coeffs[-1], 0
    for k, c in enumerate(reversed(coeffs[:-1]), start=1):
        fr, fi = fr * a - fi * b + (c << (s * k)), fr * b + fi * a
    return fr, fi


def _newton_radius(
    coeffs: tuple[int, ...], dcoeffs: tuple[int, ...], re: Fraction, im: Fraction, grid: int
) -> Fraction | None:
    """Upper bound on d*|f(z)/f'(z)| on the grid 2^-grid, or None if f'(z) = 0."""
    s, [(a, b)] = dyadic_numerators([(re, im)])
    (fr, fi), (gr, gi) = (gaussian_horner(cs, a, b, s) for cs in (coeffs, dcoeffs))
    if not (gr or gi):
        return None
    # (d|f|/|f'|)^2 = d^2 |F|^2 / (|F'|^2 4^s) with F = 2^(s d) f(z)
    d = len(coeffs) - 1
    n = ((d * d * (fr * fr + fi * fi)) << (2 * grid)) // ((gr * gr + gi * gi) << (2 * s))
    return Fraction(math.isqrt(n) + 1, 1 << grid)


def _pairwise_disjoint(disks) -> bool:
    _, ints = dyadic_numerators(disks)
    for i, (x1, y1, r1) in enumerate(ints):
        for x2, y2, r2 in ints[i + 1 :]:
            if (x1 - x2) ** 2 + (y1 - y2) ** 2 <= (r1 + r2) ** 2:
                return False
    return True


def modulus_squared_bounds(
    re: Fraction, im: Fraction, radius: Fraction, bits: int
) -> tuple[Fraction, Fraction]:
    """Enclosure of |z|^2 over the disk around (re, im); the centre's
    modulus is rounded on the grid 2^-bits."""
    c2 = re * re + im * im
    c_lo, c_hi = sqrt_bounds(c2, bits)
    lo = max(Fraction(0), c_lo - radius)
    hi = c_hi + radius
    return lo * lo, hi * hi
