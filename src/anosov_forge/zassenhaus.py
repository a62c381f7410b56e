"""Irreducible factors over Z of primitive squarefree integer polynomials.

Zassenhaus's method (J. Number Theory 1, 1969), in the form of von zur
Gathen and Gerhard, Modern Computer Algebra, chapters 14 and 15.
Coefficient lists are lowest degree first, as in intpoly.

1. Modulo a few small odd primes p at which f stays squarefree,
   distinct-degree factorisation gives the degrees of the irreducible
   factors of f mod p; Frobenius acts through the rows x^(ip) mod f.  The
   degree of a factor over Z is a sum of some of these degrees at every
   prime, which can prove f irreducible at once.
2. At the prime with the fewest factors, Cantor-Zassenhaus equal-degree
   splitting gives the monic irreducible factors mod p.
3. They are Hensel-lifted to p^l > 2B, where B = 2^n |f|_2 bounds the
   coefficients of lc(f)/lc(g) * g for every factor g of f (Mignotte).
4. Subsets of the lifted factors, smallest first and of allowed degree
   only, are multiplied by the leading coefficient and reduced
   symmetrically; a product whose primitive part divides f is a factor.
"""

from __future__ import annotations

import itertools
import math
import random

# good primes whose factor degrees are compared before lifting
_PATTERN_PRIMES = 3


def _primes():
    n = 3
    while True:
        if all(n % q for q in range(3, math.isqrt(n) + 1, 2)):
            yield n
        n += 2


# -- polynomials over F_p ---------------------------------------------------


def trim(a: list[int]) -> list[int]:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a = a + [0] * (len(b) - len(a))
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    return _reduce(zmul(a, b), p)


def _divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b != 0 over F_p."""
    n = len(b) - 1
    if len(a) <= n:
        return [], list(a)
    inv = pow(b[-1], -1, p)
    r = list(a)
    q = [0] * (len(a) - n)
    for k in range(len(a) - 1, n - 1, -1):
        c = r[k] * inv % p
        if c:
            q[k - n] = c
            for i in range(n):
                r[k - n + i] -= c * b[i]
    return q, trim([x % p for x in r[:n]])


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def gcd_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd over F_p of a != 0 and b."""
    while b:
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p)


def _gcdex(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """s, t with s a + t b = 1 over F_p, for coprime a and b."""
    r0, r1, s0, s1, t0, t1 = a, b, [1], [], [], [1]
    while r1:
        q, r = _divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, _sub(s0, _mul(q, s1, p), p)
        t0, t1 = t1, _sub(t0, _mul(q, t1, p), p)
    inv = pow(r0[0], -1, p)
    return [c * inv % p for c in s0], [c * inv % p for c in t0]


def _powmod(a: list[int], e: int, f: list[int], p: int) -> list[int]:
    out, base = [1], a
    while e:
        if e & 1:
            out = _divmod(_mul(out, base, p), f, p)[1]
        e >>= 1
        if e:
            base = _divmod(_mul(base, base, p), f, p)[1]
    return out


def _frobenius_rows(f: list[int], p: int) -> list[list[int]]:
    """x^(ip) mod f for 0 <= i < n, dense of length n, f monic of degree n."""
    n = len(f) - 1
    neg = [-c % p for c in f[:n]]
    cur = [1] + [0] * (n - 1)
    rows = [cur]
    for _ in range(n - 1):
        for _ in range(p):
            top = cur[-1]
            cur = [0] + cur[:-1]
            if top:
                cur = [(c + top * m) % p for c, m in zip(cur, neg)]
        rows.append(cur)
    return rows


def _frobenius(h: list[int], rows: list[list[int]], p: int) -> list[int]:
    """h^p mod f, from the rows of _frobenius_rows."""
    out = [0] * len(rows)
    for c, row in zip(h, rows):
        if c:
            for i, v in enumerate(row):
                out[i] += c * v
    return trim([x % p for x in out])


def _distinct_degree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Pairs (g, d), d ascending: g is the product of the monic irreducible
    factors of degree d of the squarefree monic f over F_p."""
    rows = _frobenius_rows(f, p)
    out, rest, h, d = [], f, [0, 1], 0
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        h = _frobenius(h, rows, p)
        g = gcd_mod(rest, _sub(h, [0, 1], p), p)
        if len(g) > 1:
            out.append((g, d))
            rest = _divmod(rest, g, p)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _equal_degree(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """The monic irreducible factors, all of degree d, of the squarefree
    monic g over F_p, p odd (Cantor-Zassenhaus)."""
    n = len(g) - 1
    if n == d:
        return [g]
    e = (p**d - 1) // 2
    while True:
        a = trim([rng.randrange(p) for _ in range(n)])
        if len(a) < 2:
            continue
        h = gcd_mod(g, _sub(_powmod(a, e, g, p), [1], p), p)
        if 1 < len(h) <= n:
            rest = _divmod(g, h, p)[0]
            return _equal_degree(h, d, p, rng) + _equal_degree(rest, d, p, rng)


# -- Hensel lifting and recombination over Z ---------------------------------


def zmul(a: list[int], b: list[int]) -> list[int]:
    """The product a b in Z[x]."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def zadd(*polys: list[int]) -> list[int]:
    """The sum of the polys in Z[x]."""
    out = [0] * max(len(a) for a in polys)
    for a in polys:
        for i, c in enumerate(a):
            out[i] += c
    return out


def _reduce(a: list[int], m: int) -> list[int]:
    return trim([c % m for c in a])


def _divmod_monic(a: list[int], h: list[int]) -> tuple[list[int], list[int]]:
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


def _hensel_step(m, f, g, h, s, t):
    """From f = g h and s g + t h = 1 mod m, with h monic, the same
    relations mod m^2 (von zur Gathen-Gerhard, Algorithm 15.10)."""
    mm = m * m
    e = _reduce(zadd(f, [-c for c in zmul(g, h)]), mm)
    q, r = _divmod_monic(_reduce(zmul(s, e), mm), h)
    g1 = _reduce(zadd(g, zmul(t, e), zmul(q, g)), mm)
    h1 = _reduce(zadd(h, r), mm)
    b = _reduce(zadd(zmul(s, g1), zmul(t, h1), [-1]), mm)
    c, d = _divmod_monic(_reduce(zmul(s, b), mm), h1)
    s1 = _reduce(zadd(s, [-x for x in d]), mm)
    t1 = _reduce(zadd(t, [-x for x in zmul(t, b)], [-x for x in zmul(c, g1)]), mm)
    return g1, h1, s1, t1


def _hensel_lift(f: list[int], factors: list[list[int]], p: int, pl: int) -> list[list[int]]:
    """Monic F_i = factors[i] mod p with f = lc(f) * prod F_i mod pl, for
    pairwise coprime monic factors with f = lc(f) * prod factors mod p."""
    if len(factors) == 1:
        inv = pow(f[-1], -1, pl)
        return [_reduce([c * inv for c in f], pl)]
    k = len(factors) // 2
    g = [f[-1] % p]
    for u in factors[:k]:
        g = _mul(g, u, p)
    h = [1]
    for u in factors[k:]:
        h = _mul(h, u, p)
    s, t = _gcdex(g, h, p)
    m = p
    while m < pl:
        g, h, s, t = _hensel_step(m, f, g, h, s, t)
        m *= m
    return _hensel_lift(g, factors[:k], p, pl) + _hensel_lift(h, factors[k:], p, pl)


def primitive(a: list[int]) -> list[int]:
    """a over its content, with a positive leading coefficient (a != 0)."""
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return [c // g for c in a]


def exact_quotient(f, g) -> list[int] | None:
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


def _recombine(f: list[int], lifted: list[list[int]], pl: int, allowed: int) -> list[list[int]]:
    """Factors of f over Z from its monic lifted factors mod pl; `allowed`
    has bit d set for every degree d a factor may have."""
    half = pl // 2
    out = []
    left = list(range(len(lifted)))
    size = 1
    while 2 * size <= len(left):
        for subset in itertools.combinations(left, size):
            if not allowed >> sum(len(lifted[i]) - 1 for i in subset) & 1:
                continue
            lc = f[-1]
            const = lc
            for i in subset:
                const = const * lifted[i][0] % pl
            if const > half:
                const -= pl
            if not const or lc * f[0] % const:
                continue
            g = [lc]
            for i in subset:
                g = _reduce(zmul(g, lifted[i]), pl)
            g = primitive([c - pl if c > half else c for c in g])
            q = exact_quotient(f, g)
            if q is not None:
                out.append(g)
                f = q
                left = [i for i in left if i not in subset]
                break
        else:
            size += 1
    out.append(f)
    return out


def factor_squarefree(f: list[int]) -> list[list[int]]:
    """Irreducible factors over Z of f, which is primitive and squarefree,
    with a positive leading coefficient, f(0) != 0 and degree >= 1.  Each
    factor is primitive with a positive leading coefficient; the order is
    not specified."""
    n = len(f) - 1
    if n == 1:
        return [f]
    allowed = (1 << (n + 1)) - 1
    best = None
    tried = 0
    for p in _primes():
        if f[-1] % p == 0:
            continue
        fp = _monic([c % p for c in f], p)
        dfp = trim([i * c % p for i, c in enumerate(fp)][1:])
        if len(gcd_mod(fp, dfp, p)) > 1:
            continue
        ddf = _distinct_degree(fp, p)
        sums, count = 1, 0
        for g, d in ddf:
            for _ in range((len(g) - 1) // d):
                sums |= sums << d
                count += 1
        allowed &= sums
        if allowed == 1 | 1 << n:
            return [f]
        if best is None or count < best[2]:
            best = (p, ddf, count)
        tried += 1
        if tried == _PATTERN_PRIMES:
            break
    p, ddf, _ = best
    rng = random.Random(n)
    factors = [u for g, d in ddf for u in _equal_degree(g, d, p, rng)]
    bound = (math.isqrt(sum(c * c for c in f)) + 1) << n
    pl = p
    while pl <= 2 * bound:
        pl *= p
    return _recombine(f, _hensel_lift(f, factors, p, pl), pl, allowed)
