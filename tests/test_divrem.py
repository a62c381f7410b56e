"""The one long division over Z, zassenhaus.divrem, against the three
division loops it replaced: the exact quotient of factor recombination,
the monic division of Hensel lifting and the pseudo-remainder of gcds and
Sturm chains; and against long division over Q."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from anosov_forge.intpoly import _pseudo_remainder
from anosov_forge.zassenhaus import divrem, exact_quotient, trim, zadd, zmul


def reference_exact_quotient(f, g):
    """f / g if g divides f in Z[x], else None (g != 0)."""
    n = len(g) - 1
    if len(f) <= n:
        return [] if not any(f) else None
    r = list(f)
    lc = g[-1]
    q = [0] * (len(f) - n)
    for k in range(len(f) - 1, n - 1, -1):
        c, rem = divmod(r[k], lc)
        if rem:
            return None
        if c:
            q[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * g[i]
    return None if any(r[:n]) else q


def reference_divmod_monic(a, h):
    """Quotient and remainder over Z of a by the monic h."""
    n = len(h) - 1
    if len(a) <= n:
        return [], list(a)
    r = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        c = r[k]
        if c:
            q[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * h[i]
    return q, r[:n]


def reference_pseudo_remainder(a, b):
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


def rational_divmod(f, g):
    """Quotient and remainder over Q, lowest degree first, both trimmed."""
    n = len(g) - 1
    r = [Fraction(c) for c in f]
    q = [Fraction(0)] * max(len(f) - n, 0)
    for k in range(len(f) - 1, n - 1, -1):
        c = q[k - n] = r[k] / g[-1]
        for i in range(n + 1):
            r[k - n + i] -= c * g[i]
    return trim(q), trim(r[:n])


def divisors(monic=False):
    """Nonzero integer polynomials of degree 0 to 4, trimmed."""
    lead = st.just(1) if monic else st.integers(-6, 6).filter(bool)
    return st.builds(lambda low, lc: low + [lc], st.lists(st.integers(-9, 9), max_size=4), lead)


@st.composite
def dividends(draw, g):
    """f = q g + r with r of degree below g: exact (r = 0), inexact, or
    shorter than g (q = 0); or any f of at most 9 terms."""
    kind = draw(st.sampled_from(["exact", "remainder", "short", "any"]))
    coeffs = st.integers(-30, 30)
    if kind == "any":
        return trim(draw(st.lists(coeffs, max_size=9)))
    q = [] if kind == "short" else draw(st.lists(coeffs, min_size=1, max_size=5))
    r = [] if kind == "exact" else draw(st.lists(coeffs, max_size=len(g) - 1))
    return trim(zadd(zmul(q, g), r, [0]))


@given(divisors().flatmap(lambda g: st.tuples(dividends(g), st.just(g))))
@example(([3, 0, 2], [1, 2]))  # lc(g) = 2 fails to divide the second leading coefficient
@example(([4, 4, 1], [2, 1]))  # an exact division
@example(([5], [1, 0, 3]))  # f shorter than g
@example(([], [7]))  # the zero dividend
@settings(max_examples=400, deadline=None)
def test_divrem_and_exact_quotient_match_references(fg):
    f, g = fg
    q, r = rational_divmod(f, g)
    got = divrem(f, g)
    if all(c.denominator == 1 for c in q):
        assert got is not None
        assert (trim(got[0]), got[1]) == (q, r)
    else:
        assert got is None
    assert exact_quotient(f, g) == reference_exact_quotient(f, g)


@given(divisors(monic=True).flatmap(lambda h: st.tuples(dividends(h), st.just(h))))
@example(([2, 0, 0, 5], [1, 1]))
@example(([2], [3, 0, 1]))  # f shorter than h
@settings(max_examples=300, deadline=None)
def test_monic_division_matches_hensel_reference(fh):
    f, h = fh
    q, r = divrem(f, h)
    ref_q, ref_r = reference_divmod_monic(f, h)
    assert (q, r) == (ref_q, trim(ref_r))


@given(divisors().flatmap(lambda b: st.tuples(dividends(b), st.just(b))))
@example(([1, 0, 0, 0, 1], [2, -3]))
@example(([4, 1], [0, 0, 3]))  # a shorter than b
@settings(max_examples=300, deadline=None)
def test_pseudo_remainder_matches_reference(ab):
    a, b = ab
    assert _pseudo_remainder(a, b) == reference_pseudo_remainder(a, b)
