"""Independent numeric oracles for the audit pipeline.

Everything here is computed with mpmath at 60 significant digits from the
construction of an input (roots of an integer polynomial, or explicit joint
eigenvalue tuples), never from anosov_forge.  A quantity whose absolute
value is below TOL sits on a decision boundary at this precision: the
oracle reports it as borderline and the checks count it as flagged instead
of judging the program on it.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

MP = mpmath.MPContext()
MP.dps = 60
TOL = MP.mpf(10) ** -30


# -- integer polynomials and matrices -----------------------------------------


def companion(p: list[int]) -> list[list[int]]:
    """Companion matrix of the monic polynomial p (coefficients lowest
    degree first, leading 1 included): ones below the diagonal, -p[i] in
    the last column."""
    d = len(p) - 1
    if p[-1] != 1:
        raise ValueError("companion() needs a monic polynomial")
    return [
        [(1 if i == j + 1 else 0) if j < d - 1 else -p[i] for j in range(d)]
        for i in range(d)
    ]


def mat_mul(a, b):
    return [
        [sum(a[i][t] * b[t][j] for t in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def poly_of_matrix(q: list[int], a) -> list[list[int]]:
    """q(a) for an integer polynomial q (lowest degree first), by Horner."""
    n = len(a)
    out = [[0] * n for _ in range(n)]
    for c in reversed(q):
        out = mat_mul(out, a)
        for i in range(n):
            out[i][i] += c
    return out


def charpoly(a) -> list[int]:
    """Characteristic polynomial det(xI - a), lowest degree first, by the
    Faddeev-LeVerrier recursion in exact rationals."""
    n = len(a)
    m = [[Fraction(0)] * n for _ in range(n)]
    coeffs = [Fraction(0)] * (n + 1)
    coeffs[n] = Fraction(1)
    for k in range(1, n + 1):
        am = mat_mul([[Fraction(v) for v in row] for row in a], m)
        m = [
            [am[i][j] + (coeffs[n - k + 1] if i == j else 0) for j in range(n)]
            for i in range(n)
        ]
        am = mat_mul([[Fraction(v) for v in row] for row in a], m)
        coeffs[n - k] = -sum(am[i][i] for i in range(n)) / k
    return [int(c) for c in coeffs]


def roots(p: list[int]) -> list:
    """All complex roots of p (lowest degree first) to 60 digits."""
    return MP.polyroots(list(reversed(p)), maxsteps=500, extraprec=600)


def is_irreducible(p: list[int]) -> bool:
    """A monic integer polynomial is reducible over Q iff some proper subset
    of its roots (of size <= deg/2) spans a monic factor with integer
    coefficients (Gauss).  Checks every such subset numerically."""
    rs = roots(p)
    d = len(rs)
    for k in range(1, d // 2 + 1):
        for sub in itertools.combinations(rs, k):
            poly = [MP.mpc(1)]
            for r in sub:
                poly = [a - r * b for a, b in zip(poly + [0], [0] + poly)]
            if all(abs(c - MP.nint(c.real)) < MP.mpf(10) ** -20 for c in poly):
                return False
    return True


# -- joint spectra and Lyapunov functionals -----------------------------------


def poly_value(q: list[int], z):
    acc = MP.mpc(0)
    for c in reversed(q):
        acc = acc * z + c
    return acc


def joint_tuples(factors, qs) -> list[tuple]:
    """Joint eigenvalue tuples of the action generated by q_i(A), where A is
    block diagonal with companions of the given (polynomial, multiplicity)
    factors: one tuple (q_1(l), ..., q_k(l)) per root l, with multiplicity."""
    out = []
    for p, mult in factors:
        for lam in roots(p):
            out.extend([tuple(poly_value(q, lam) for q in qs)] * mult)
    return out


def lift2_tuples(base: list[tuple]) -> list[tuple]:
    """Joint eigenvalue tuples of the free 2-step nilpotent lift: the base
    tuples plus the products of every unordered pair of distinct base
    eigenvectors (degree 2 is the exterior square)."""
    pairs = [
        tuple(a * b for a, b in zip(base[i], base[j]))
        for i in range(len(base))
        for j in range(i + 1, len(base))
    ]
    return list(base) + pairs


class Functional:
    """chi(b) = sum_i b_i log|mu_i| with its multiplicity."""

    def __init__(self, vec, multiplicity: int):
        self.vec = tuple(vec)
        self.multiplicity = multiplicity

    def at(self, b):
        return MP.fsum(MP.mpf(bi) * v for bi, v in zip(b, self.vec))

    def floats(self) -> list[float]:
        return [float(v) for v in self.vec]


def norm(v):
    return MP.sqrt(MP.fsum(x * x for x in v))


def functionals(tuples) -> tuple[list[Functional], int]:
    """Distinct log-modulus vectors with multiplicities; returns them with
    the number of borderline coincidences (vectors within TOL)."""
    out: list[Functional] = []
    flagged = 0
    for t in tuples:
        vec = [MP.log(abs(mu)) for mu in t]
        for f in out:
            gap = max(abs(a - b) for a, b in zip(f.vec, vec))
            if gap < TOL:
                f.multiplicity += 1
                break
            if gap < TOL * 10**10:
                flagged += 1
        else:
            out.append(Functional(vec, 1))
    return out, flagged


def _minor_size(f, g):
    """Largest 2x2 minor of the pair, scaled by the norms: 0 iff parallel."""
    k = len(f)
    best = MP.mpf(0)
    for a in range(k):
        for b in range(a + 1, k):
            best = max(best, abs(f[a] * g[b] - f[b] * g[a]))
    return best / (norm(f) * norm(g))


def relation(f, g) -> str:
    """'pos', 'neg', 'none' or 'borderline' for two vectors."""
    m = _minor_size(f, g)
    if m >= TOL:
        return "none"
    if m > TOL**1.5:
        return "borderline"
    return "pos" if MP.fsum(a * b for a, b in zip(f, g)) > 0 else "neg"


class Classes:
    """Coarse Lyapunov classes: maximal groups of positively proportional
    functionals.  `normals[c]` is the first member's vector."""

    def __init__(self, funcs: list[Functional]):
        self.flagged = 0
        self.zero = any(norm(f.vec) < TOL for f in funcs)
        self.members: list[list[Functional]] = []
        for f in funcs:
            for grp in self.members:
                rel = relation(grp[0].vec, f.vec)
                if rel == "borderline":
                    self.flagged += 1
                if rel == "pos":
                    grp.append(f)
                    break
            else:
                self.members.append([f])
        self.normals = [grp[0].vec for grp in self.members]
        self.multiplicities = [sum(f.multiplicity for f in g) for g in self.members]

    def __len__(self):
        return len(self.members)

    def value(self, c: int, b):
        return MP.fsum(MP.mpf(bi) * v for bi, v in zip(b, self.normals[c]))

    def negative_pairs(self) -> list[tuple[int, int]]:
        return [
            (i, j)
            for i in range(len(self))
            for j in range(i + 1, len(self))
            if relation(self.normals[i], self.normals[j]) == "neg"
        ]

    def is_tns(self) -> bool:
        """Totally non-symplectic: no two classes negatively proportional."""
        return not self.negative_pairs()

    def hyperplanes(self) -> list[tuple]:
        """One normal per distinct kernel (classes up to sign)."""
        out: list[tuple] = []
        for v in self.normals:
            if all(relation(u, v) == "none" for u in out):
                out.append(v)
        return out


def numeric_rank(vectors, tol=TOL) -> int:
    """Rank by Gaussian elimination with partial pivoting; pivots below
    tol (relative to the largest entry) count as zero."""
    rows = [[MP.mpf(x) for x in v] for v in vectors]
    if not rows:
        return 0
    scale = max(abs(x) for r in rows for x in r) or MP.mpf(1)
    rank, col, ncols = 0, 0, len(rows[0])
    while rank < len(rows) and col < ncols:
        piv = max(range(rank, len(rows)), key=lambda r: abs(rows[r][col]))
        if abs(rows[piv][col]) < tol * scale:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, len(rows)):
            f = rows[r][col] / rows[rank][col]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
        col += 1
    return rank


def zaslavsky_count(normals) -> int:
    """Regions of a central arrangement: sum over subsets B of the
    hyperplanes of (-1)^(|B| - rank B) (Zaslavsky 1975)."""
    total = 0
    for size in range(len(normals) + 1):
        for sub in itertools.combinations(normals, size):
            total += (-1) ** (size - numeric_rank(sub))
    return total


def chamber_count(classes: Classes, rank: int) -> int:
    """2n for n distinct kernel lines in rank 2, Zaslavsky's count otherwise."""
    planes = classes.hyperplanes()
    if rank == 2:
        return 2 * len(planes)
    return zaslavsky_count(planes)


def sign(x) -> int | None:
    """Sign of an mp number; None when it is within TOL of 0."""
    if abs(x) < TOL:
        return None
    return 1 if x > 0 else -1


def anosov_at(funcs: list[Functional], b) -> bool | None:
    """The product matrix of element b has eigenvalue moduli exp(chi(b));
    it is Anosov iff no chi(b) is 0.  None when some chi(b) is borderline."""
    signs = [sign(f.at(b)) for f in funcs]
    if None in signs:
        return None
    return True


# -- subresonance -----------------------------------------------------------


class Comparator:
    """Signs of exponent combinations: exact for Fractions, TOL-flagged for
    mp values."""

    def __init__(self):
        self.flagged = 0

    def sign(self, x) -> int:
        if isinstance(x, Fraction) or x == 0:
            # Fractions are exact; an mp zero is an exact cancellation of
            # identical terms (s = e_i), not a value near a boundary
            return (x > 0) - (x < 0)
        s = sign(x)
        if s is None:
            self.flagged += 1
            return 0
        return s


def sr_indices(exps, cmp: Comparator) -> set[tuple[int, tuple[int, ...]]]:
    """Every (i, s) with sum(s) >= 1 and chi_i <= sum_j s_j chi_j, found by
    scanning the box s_j <= chi_i / chi_j (all exponents negative)."""
    out = set()
    for i, chi_i in enumerate(exps):
        caps = [int(math.floor(float(chi_i / chi_j) + 1e-9)) + 1 for chi_j in exps]
        for s in itertools.product(*(range(c + 1) for c in caps)):
            if not any(s):
                continue
            total = sum((sj * chi for sj, chi in zip(s, exps)), start=exps[0] * 0)
            if cmp.sign(total - chi_i) >= 0:
                out.add((i, s))
    return out


def sr_dimension(exps, mults, cmp: Comparator) -> int:
    """Count admissible monomials one variable at a time (each block of
    multiplicity m contributes m variables), never listing indices."""
    weights = [chi for chi, m in zip(exps, mults) for _ in range(m)]

    def count(v: int, budget, nonzero: bool) -> int:
        # monomials in variables v.. whose total weight is >= budget
        if v == len(weights):
            return 1 if nonzero else 0
        total, deg = 0, 0
        while cmp.sign(budget - deg * weights[v]) <= 0:
            total += count(v + 1, budget - deg * weights[v], nonzero or deg > 0)
            deg += 1
        return total

    return sum(m * count(0, chi, False) for chi, m in zip(exps, mults))
