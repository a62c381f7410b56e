"""Lyapunov functionals, Weyl chambers, TNS, splittings, fast stable elements.

The Lyapunov exponents of a commuting tuple of integer matrices are the
linear functionals b -> sum_i b_i log|lambda_i| attached to joint eigenvalue
tuples (lambda_1, ..., lambda_k).  They are extracted exactly: each joint
primary component carries a commutative semisimple matrix algebra, which is
generated by a single cyclic element C; every generator is a polynomial in
C, so joint eigenvalue tuples are polynomial images of the roots of the
(exactly factored) characteristic polynomial of C.  Moduli are certified
from the root disks of their places, matched once per place and precision
and evaluated in integers on the disks' dyadic grid.  They are identified
as canonical real algebraic numbers only when an exact test, or a group of
modulus vectors whose enclosures overlap, needs them; functional values
are log-linear values with exact vanishing tests and refinable signs.

Chambers are read off the certified signs of the minors of the class
normals, in every rank: a sign vector is a chamber iff no signed circuit
matches it, and its witness is built from the vertices of the arrangement.
TNS is read off the coarse classes, which certify every negative
proportionality they meet.  The certified chamber signs are the one
certificate for the rest: a witness with strict signs is an Anosov
element (eigenvalue moduli exp chi(b)), and a chamber negative on two
classes contracts both.  Splittings and fast stable elements are chamber
witnesses as well: of the class traces on a plane, and of the differences
of the side and target functionals.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .actions import PrimaryComponent, ValidatedAction, joint_primary_components
from .config import DEFAULT_CAP, INITIAL_BITS, precisions
from .errors import (
    DegeneratePlane,
    NotAnosovAction,
    NotTNS,
    PrecisionExhausted,
    SingularElement,
    UndecidedProportionality,
    WitnessSearchExhausted,
)
from .intpoly import (
    IntPolynomial,
    factor_cached,
    pair_product_parts,
    real_root_window,
    sturm_count,
)
from .logval import LogLinearValue
from .numutil import (
    certified_root_disks, dyadic_numerators, gaussian_horner, modulus_squared_bounds, sqrt_bounds
)
from .realalg import Modulus, _interval_mul

# largest smaller term (numerator or denominator) of a rational ratio that
# certifies two functionals proportional, and largest entry of an integer
# witness
_MAX_DEN = 12
_WITNESS_CAP = 10**6


# -- data types --------------------------------------------------------------


@dataclass(frozen=True)
class LyapunovFunctional:
    """A Lyapunov exponent: values[i] = chi(e_i) = log|lambda_i|."""

    values: tuple[LogLinearValue, ...]
    multiplicity: int
    origin: int | None = None

    @property
    def rank(self) -> int:
        return len(self.values)

    def value_at(self, b) -> LogLinearValue:
        return LogLinearValue.build(
            sum(bi * v.const for bi, v in zip(b, self.values)),
            [(bi * c, a) for bi, v in zip(b, self.values) for c, a in v.terms],
        )

    def is_zero_functional(self) -> bool:
        return all(v.vanishes() for v in self.values)


@dataclass(frozen=True)
class CoarseClass:
    """Maximal group of positively proportional Lyapunov functionals.

    opposite is (j, c) when class j is negatively proportional to this one,
    its normal being -c times this normal (c None when not certified
    rational); there is at most one such class."""

    index: int
    members: tuple[LyapunovFunctional, ...]
    total_multiplicity: int
    opposite: tuple[int, Fraction | None] | None = None

    @property
    def hyperplane_normal(self) -> LyapunovFunctional:
        return self.members[0]

    @property
    def rank(self) -> int:
        return self.members[0].rank

    def value_at(self, b) -> LogLinearValue:
        return self.hyperplane_normal.value_at(b)


@dataclass(frozen=True)
class WeylChamber:
    """Open chamber identified by its sign vector over the coarse classes."""

    signs: tuple[int, ...]
    witness: tuple[int, ...]


@dataclass(frozen=True)
class Splitting:
    """Lemma-5.1-style splitting of the coarse classes around a target.

    Witnesses satisfy stable_set(a1) = E1 + {target}, stable_set(c1) = E1,
    stable_set(a2) = E2 + {target}, stable_set(c2) = E2.
    """

    target: int
    e1_classes: tuple[int, ...]
    e2_classes: tuple[int, ...]
    a1: tuple[int, ...]
    a2: tuple[int, ...]
    c1: tuple[int, ...]
    c2: tuple[int, ...]
    plane: tuple[tuple[int, ...], tuple[int, ...]]
    m: int


# -- lyapunov functional extraction ------------------------------------------


def _cyclic_generator(
    semis: tuple,
) -> tuple[list[tuple[IntPolynomial, int]], list[list[Fraction]]]:
    """Find C in the algebra generated by the commuting semisimple matrices
    with every generator a polynomial in C; returns (the factorisation of
    charpoly(C), poly coefficients).

    A generic linear combination works because the algebra is etale over Q.
    C is semisimple, so its minimal polynomial has degree r, the sum of the
    degrees of the distinct factors, and C^r e_j is a combination of the
    lower Krylov vectors.  The coefficients q of s = q(C) solve
    q(C) e_j = s e_j, stacked for e_1, e_2, ... until the Krylov vectors
    C^i e_j (i < r) span Q^m: one system eliminated once for every s as its
    right-hand sides.  That is enough, since s commutes with C:
    q(C) p(C) e_j = p(C) s e_j = s p(C) e_j for every p.
    """
    m = len(semis[0])

    def try_candidate(c):
        factors = factor_cached(linalg.charpoly(c))
        r = sum(p.degree for p, _ in factors)
        # Krylov vectors of the integer matrix B = den*C: B^i e_j = den^i C^i e_j
        b, den = linalg.integral(c)
        rows: list[list[int]] = []
        rhs: list[list[Fraction]] = [[] for _ in semis]
        krylov: list[list[int]] = []
        for j in range(m):
            vecs = [[int(i == j) for i in range(m)]]
            for _ in range(r - 1):
                vecs.append(linalg.mat_vec(b, vecs[-1]))
            rows += [[v[i] for v in vecs] for i in range(m)]
            for col, s in zip(rhs, semis):
                col += [s[i][j] for i in range(m)]
            krylov += vecs
            if linalg.rank(krylov) == m:
                break
        sols = linalg.solve(rows, rhs)
        if None in sols:
            return None
        return factors, [[x * den**i for i, x in enumerate(sol)] for sol in sols]

    def candidates():
        yield from semis
        for t in range(1, 64):
            acc = semis[0]
            for i, s in enumerate(semis[1:], start=1):
                acc = linalg.mat_add(acc, linalg.mat_scale(s, Fraction(t**i)))
            yield acc

    for c in candidates():
        found = try_candidate(c)
        if found is not None:
            return found
    raise RuntimeError("no cyclic generator found for semisimple algebra")


def _place_disks(p: IntPolynomial, base_disk):
    """bits -> the disks of p at bits that meet base_disk, matched in integers
    on one grid 2^-s and kept per bits, as (a, b, s, rad, R >= |centre| + rad)
    with centre (a + ib)/2^s.  The root's own disk always meets base_disk, and
    foreign disks drop out once their radii beat the root separation."""
    memo: dict[int, list] = {}

    def match(bits: int) -> list:
        if bits not in memo:
            disks = certified_root_disks(p.coeffs, bits)
            s, ((bx, by, br), *ints) = dyadic_numerators((base_disk, *disks))
            memo[bits] = [
                (a, b, s, rad, sqrt_bounds(re * re + im * im, bits)[1] + rad)
                for (re, im, rad), (a, b, r) in zip(disks, ints)
                if (a - bx) ** 2 + (b - by) ** 2 <= (r + br) ** 2
            ]
        return memo[bits]

    return match


def _msq_enclosure(match, q: list[Fraction]):
    """Shrinking enclosure of |q(root)|^2 for the root of a place: the hull
    of the bounds over the disks match(bits) of _place_disks, from q at the
    centre and |q(z) - q(centre)| <= rad * sum_t t |q_t| R^(t-1), both in
    integers times den, the common denominator of q."""
    (num,), den = linalg.integral([q])
    # t |den q_t| for t >= 1, the derivative bound's coefficients
    dnum = [t * abs(c) for t, c in enumerate(num)][1:] or [0]

    def enclosure(bits: int) -> tuple[Fraction, Fraction]:
        out = []
        for a, b, s, rad, big_r in match(bits):
            fr, fi = gaussian_horner(num, a, b, s)  # den 2^(s deg q) q(centre)
            scale = den << s * (len(num) - 1)
            k = big_r.denominator.bit_length() - 1
            deriv = gaussian_horner(dnum, big_r.numerator, 0, k)[0]
            grad = rad * Fraction(deriv, den << k * (len(dnum) - 1))
            out.append(modulus_squared_bounds(Fraction(fr, scale), Fraction(fi, scale), grad, bits))
        los, his = zip(*out)
        return min(los), max(his)

    return enclosure


def _component_functionals(
    comp: PrimaryComponent,
) -> list[tuple[tuple[Modulus, ...], int]]:
    # the component stores the semisimple parts of the restrictions
    factors, qs = _cyclic_generator(comp.mats)
    # for a root r of a factor of charpoly(C), q_j(r) is an eigenvalue of
    # s_j = q_j(C), whose minimal polynomial is the label f_j: the moduli
    # candidates are those of f_j, for every factor
    cands = [pair_product_parts(factor) for factor, _ in comp.labels]
    out = []
    for p, mult in factors:
        if p.degree < 1:
            continue
        disks = certified_root_disks(p.coeffs, INITIAL_BITS)
        # the q_j have rational coefficients, so |q_j(r)| = |q_j(conj r)|: one
        # record per place.  When as many disks meet the real axis as p has
        # real roots, each of them holds one, and the disks off the axis hold
        # the conjugate pairs, one member above and one below
        on_axis = sum(1 for _, im, rad in disks if abs(im) <= rad)
        paired = on_axis < p.degree and on_axis == sturm_count(p, *real_root_window(p))
        for disk in disks:
            _, im, rad = disk
            if paired and im < -rad:
                continue
            match = _place_disks(p, disk)
            msqs = tuple(Modulus(cands[j], _msq_enclosure(match, qs[j])) for j in range(len(qs)))
            out.append((msqs, 2 * mult if paired and im > rad else mult))
    return out


def _equal_moduli(xs: tuple[Modulus, ...], ys: tuple[Modulus, ...]) -> bool:
    """Exact equality of two modulus vectors: disjoint enclosures at the
    initial precision prove a coordinate differs, and only vectors whose
    enclosures all overlap are identified and compared."""
    pairs = [(x, y) for x, y in zip(xs, ys) if x is not y]
    for x, y in pairs:
        (a, b), (c, d) = x.interval(INITIAL_BITS), y.interval(INITIAL_BITS)
        if b < c or d < a:
            return False
    return all(x.algebraic == y.algebraic for x, y in pairs)


def lyapunov_data(action: ValidatedAction) -> list[LyapunovFunctional]:
    """Lyapunov functionals of the action, grouped by equal log-modulus
    vectors in order of first appearance, with multiplicities summing to
    the torus dimension."""
    groups: list[list] = []  # [moduli, multiplicity, first origin]
    for origin, comp in enumerate(joint_primary_components(action)):
        for msqs, mult in _component_functionals(comp):
            for group in groups:
                if _equal_moduli(group[0], msqs):
                    group[1] += mult
                    break
            else:
                groups.append([msqs, mult, origin])
    out = [
        LyapunovFunctional(tuple(LogLinearValue.half_log(m) for m in msqs), mult, origin)
        for msqs, mult, origin in groups
    ]
    assert sum(f.multiplicity for f in out) == action.dim
    return out


# -- proportionality and coarse classes --------------------------------------


def _bounded_away(value: LogLinearValue, bits: int, cap: int):
    """Interval for a value known to be nonzero, not containing 0, at the
    first precision of the schedule from bits on that separates it."""
    for b in precisions(cap):
        if b >= bits:
            lo, hi = value.interval(b)
            if lo > 0 or hi < 0:
                return lo, hi
    raise PrecisionExhausted("nonzero value not separated from 0", cap)


def _interval_div(num, den):
    corners = [num[0] / den[0], num[0] / den[1], num[1] / den[0], num[1] / den[1]]
    return min(corners), max(corners)


def _proportionality(
    f: LyapunovFunctional,
    g: LyapunovFunctional,
    cap: int,
) -> tuple[str, Fraction | None]:
    """Decide whether g = c*f for real c: ("pos"|"neg", |c| if rational and
    certified), ("none", None), or ("undecided", None)."""
    k = f.rank
    fz = [v.vanishes() for v in f.values]
    gz = [v.vanishes() for v in g.values]
    if fz != gz:
        return "none", None
    idx = [i for i in range(k) if not fz[i]]
    if not idx:
        return "pos", Fraction(1)
    try:
        fs = [f.values[i].sign(cap) for i in idx]
        gs = [g.values[i].sign(cap) for i in idx]
    except PrecisionExhausted:
        return "undecided", None
    if gs == fs:
        sigma = 1
    elif gs == [-s for s in fs]:
        sigma = -1
    else:
        return "none", None
    if len(idx) == 1:
        return ("pos" if sigma > 0 else "neg"), None
    tried: set[Fraction] = set()
    for bits in precisions(cap):
        ratios = [
            _interval_div(
                _bounded_away(g.values[i], bits, cap),
                _bounded_away(f.values[i], bits, cap),
            )
            for i in idx
        ]
        for a in range(len(ratios)):
            for b in range(a + 1, len(ratios)):
                if ratios[a][1] < ratios[b][0] or ratios[b][1] < ratios[a][0]:
                    return "none", None
        lo = max(r[0] for r in ratios)
        hi = min(r[1] for r in ratios)
        # the one candidate: the middle rounded to a ratio whose smaller term
        # is at most _MAX_DEN, which a narrow enough enclosure pins to the
        # true ratio; lo and hi have the sign sigma, so mid is not 0
        mid = (lo + hi) / 2
        if abs(mid) >= 1:
            c = mid.limit_denominator(_MAX_DEN)
        else:
            c = 1 / (1 / mid).limit_denominator(_MAX_DEN)
        if lo <= c <= hi and c not in tried:
            tried.add(c)
            if all((g.values[i] - f.values[i].scale(c)).vanishes() for i in idx):
                return ("pos" if sigma > 0 else "neg"), abs(c)
    return "undecided", None


def coarse_classes(
    functionals: list[LyapunovFunctional], cap: int = DEFAULT_CAP
) -> list[CoarseClass]:
    """Partition functionals into maximal positively proportional groups,
    each knowing the class negatively proportional to it, if any.

    Positive proportionality is decided exactly, so every union-find root
    is the least member of its class and the classes are ordered by their
    normals' indices."""
    n = len(functionals)
    for f in functionals:
        if f.is_zero_functional():
            raise NotAnosovAction("action carries an identically zero Lyapunov functional")
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    negative: dict[tuple[int, int], Fraction | None] = {}
    for i in range(n):
        for j in range(i + 1, n):
            rel, ratio = _proportionality(functionals[i], functionals[j], cap)
            if rel == "undecided":
                raise UndecidedProportionality((i, j), cap)
            if rel == "pos":
                parent[find(j)] = find(i)
            elif rel == "neg":
                negative[i, j] = ratio
    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    roots = sorted(groups)
    opposite = {}
    for a, b in itertools.combinations(range(len(roots)), 2):
        if (roots[a], roots[b]) in negative:
            c = negative[roots[a], roots[b]]
            opposite[a], opposite[b] = (b, c), (a, None if c is None else 1 / c)
    out = []
    for idx, root in enumerate(roots):
        members = tuple(functionals[i] for i in groups[root])
        out.append(
            CoarseClass(
                idx, members, sum(f.multiplicity for f in members), opposite.get(idx)
            )
        )
    return out


# -- TNS ----------------------------------------------------------------------


def is_tns(classes: list[CoarseClass]) -> tuple[bool, dict]:
    """Totally non-symplectic: no two classes negatively proportional.

    Read off the negative relations that coarse_classes certified.  info is
    {} when true, and names the first negative pair (i, j), i < j, and the
    ratio of their normals (None when not certified rational) when false.
    Non-proportional classes have intersecting negative half-spaces, so an
    element contracting both is read off any chamber negative on the two
    (see report.audit_action)."""
    for cls in classes:
        if cls.opposite is not None:
            # the first class with a partner is the lower of its pair
            j, ratio = cls.opposite
            return False, {"negative_pair": (cls.index, j), "ratio": ratio}
    return True, {}


# -- chambers -----------------------------------------------------------------


def _rounded_integer_witness(x, predicate) -> tuple[int, ...]:
    """Round an interior point to a nearby lattice direction whose signs
    still certify."""
    den = 4
    while den <= _WITNESS_CAP:
        vec = [Fraction(round(v * den), den) for v in x]
        if any(vec):
            witness = _integer_scale(vec)
            if predicate(witness):
                return witness
        den *= 4
    raise WitnessSearchExhausted(_WITNESS_CAP)


def _integer_scale(vec: list[Fraction]) -> tuple[int, ...]:
    (ints,), _ = linalg.integral([vec])
    g = math.gcd(*ints)
    if g:
        ints = [v // g for v in ints]
    if max(abs(v) for v in ints) > _WITNESS_CAP:
        raise WitnessSearchExhausted(_WITNESS_CAP)
    return tuple(ints)


def _interval_det(ivs):
    """Enclosure of the determinant of a square matrix of intervals, by
    Laplace expansion along the first row; exact on exact entries."""
    if not ivs:
        return Fraction(1), Fraction(1)
    lo = hi = Fraction(0)
    for j, a in enumerate(ivs[0]):
        if a != (0, 0):
            minor = _interval_det([r[:j] + r[j + 1 :] for r in ivs[1:]])
            plo, phi = _interval_mul(a, minor)
            if j % 2:
                plo, phi = -phi, -plo
            lo, hi = lo + plo, hi + phi
    return lo, hi


def _minor_sign(rows, cap: int, what: str) -> tuple[int, Fraction]:
    """Certified sign of the determinant of a square matrix of log-linear
    values, with the midpoint of the enclosure that decided it.

    The minor is exactly 0 when its enclosure is [0, 0], when one of its
    rows is exactly zero, or when two of its rows are proportional.  Any
    other minor refines up to the cap and then raises PrecisionExhausted."""
    for bits in precisions(cap):
        lo, hi = _interval_det([[v.interval(bits) for v in row] for row in rows])
        if lo > 0 or hi < 0:
            return (1 if lo > 0 else -1), (lo + hi) / 2
        if lo == hi == 0:
            return 0, Fraction(0)
        if bits == INITIAL_BITS:  # the exact zero tests, once
            fs = [LyapunovFunctional(tuple(row), 1) for row in rows]
            if any(f.is_zero_functional() for f in fs) or any(
                _proportionality(f, g, cap)[0] in ("pos", "neg")
                for f, g in itertools.combinations(fs, 2)
            ):
                return 0, Fraction(0)
    raise PrecisionExhausted(f"sign of {what} unresolved", cap)


def weyl_chambers(
    classes: list[CoarseClass], cap: int = DEFAULT_CAP
) -> list[WeylChamber]:
    """Connected components of R^k minus the union of Lyapunov kernels,
    each with an integer witness carrying certified strict signs.

    Read off the signs chi(S) of the k x k minors of the rows (the n class
    normals, then the k unit vectors, which make every circuit a Cramer
    vector and every vertex a cofactor vector even when the normals span
    less than R^k).  A sign vector is a chamber iff no signed circuit of the
    normals agrees with it or its negative on the circuit's support
    (Gordan/Farkas); its witness is the sum of the vertices below it,
    scaled to max norm 1 and rounded."""
    if not classes:
        raise NotAnosovAction("no coarse classes")
    k, n = classes[0].rank, len(classes)
    normals = [c.hyperplane_normal.values for c in classes]
    chi: dict[tuple[int, ...], tuple[int, Fraction]] = {}
    for rows in itertools.combinations(range(n + k), k):
        cls = [r for r in rows if r < n]
        units = [r - n for r in rows if r >= n]
        cols = [j for j in range(k) if j not in units]
        # moving the unit columns last leaves the minor on the other columns
        flip = (-1) ** sum(v > u for u in units for v in cols)
        what = f"the minor of classes {tuple(cls)} on coordinates {tuple(cols)}"
        minor = [[normals[c][j] for j in cols] for c in cls]
        sign, mid = _minor_sign(minor, cap, what)
        chi[rows] = flip * sign, flip * mid

    def entry(rows: tuple[int, ...], e: int) -> tuple[int, Fraction]:
        # chi of rows + (e,) with e in last position, and its midpoint
        if e in rows:
            return 0, Fraction(0)
        sign, mid = chi[tuple(sorted(rows + (e,)))]
        flip = (-1) ** sum(r > e for r in rows)
        return flip * sign, flip * mid

    # signed circuits of the normals (Cramer), keyed by their last class
    circuits: dict[int, set[tuple[tuple[int, int], ...]]] = {}
    for rows in itertools.combinations(range(n + k), k + 1):
        signs = [(-1) ** i * chi[rows[:i] + rows[i + 1 :]][0] for i in range(k + 1)]
        support = [(r, s) for r, s in zip(rows, signs) if s]
        if support and support[-1][0] < n:
            circuits.setdefault(support[-1][0], set()).add(tuple(support))
    # extend sign prefixes class by class, dropping those a circuit matches
    cells: list[tuple[int, ...]] = [()]
    for m in range(n):
        last = circuits.get(m, ())
        cells = [
            c
            for c in (cell + (s,) for cell in cells for s in (1, -1))
            if all(len({c[r] * x for r, x in circ}) > 1 for circ in last)
        ]

    # vertices: cofactor vectors with their class signs, scaled to max norm 1
    vertices = []
    for rows in itertools.combinations(range(n + k), k - 1):
        covector = tuple(entry(rows, e)[0] for e in range(n))
        if any(covector):
            vec = [entry(rows, n + j)[1] for j in range(k)]
            top = max(abs(v) for v in vec)
            vertices.append((covector, [v / top for v in vec]))
    chambers = []
    for cell in cells:
        x = [Fraction(0)] * k
        for covector, vec in vertices:
            agree = {c * s for c, s in zip(covector, cell) if c}
            if len(agree) == 1:
                (o,) = agree
                x = [xi + o * v for xi, v in zip(x, vec)]
        top = max(abs(v) for v in x)
        x = [v / top for v in x]

        def matches(w, cell=cell) -> bool:
            try:
                got = tuple(c.value_at(w).sign(cap) for c in classes)
            except PrecisionExhausted:
                return False
            return got == cell

        witness = _rounded_integer_witness(x, matches)
        chambers.append(WeylChamber(cell, witness))
    return chambers


def anosov_in_every_chamber(chambers: list[WeylChamber]) -> bool:
    """Every chamber witness is an Anosov element.

    The eigenvalue moduli of the product matrix at b are exp(chi(b)) over
    the Lyapunov functionals chi, and each chi is a positive multiple of its
    class normal.  So a witness whose class signs are certified strict has
    no eigenvalue of modulus 1: the certified signs are the certificate."""
    return all(0 not in ch.signs for ch in chambers)


# -- stable sets, splittings, fast stable elements ----------------------------


def stable_set(
    classes: list[CoarseClass], b, cap: int = DEFAULT_CAP
) -> list[CoarseClass]:
    """Classes with certified chi(b) < 0; raises SingularElement when some
    class vanishes at b."""
    out = []
    for cls in classes:
        s = cls.value_at(b).sign(cap)
        if s == 0:
            raise SingularElement(tuple(b))
        if s < 0:
            out.append(cls)
    return out


def complementary_splitting(
    classes: list[CoarseClass],
    target: CoarseClass,
    cap: int = DEFAULT_CAP,
) -> Splitting:
    """Split the non-target classes into E1/E2 via a generic rational
    2-plane, with the four witness elements of the splitting lemma.

    E1/E2 are the classes whose traces on the plane turn one way or the
    other from the target's (the sign of a 2 x 2 minor).  Each witness is
    read off the chamber of the traces with the signs it needs, all of
    which lie next to the target's trace line."""
    if not is_tns(classes)[0]:
        raise NotTNS("splitting requires a TNS action")
    if len(classes) < 2:
        raise NotTNS("splitting needs at least two coarse classes")
    k = target.rank
    rng = random.Random(0)

    for _attempt in range(64):
        p = tuple(rng.randint(-9, 9) for _ in range(k))
        q = tuple(rng.randint(-9, 9) for _ in range(k))
        if linalg.rank([p, q]) < 2:
            continue
        try:
            traces = []
            for cls in classes:
                gx = cls.value_at(p)
                gy = cls.value_at(q)
                if gx.vanishes() and gy.vanishes():
                    raise DegeneratePlane("class vanishes on the plane")
                traces.append((gx, gy))
            t = target.index
            e1, e2 = [], []
            for j, cls in enumerate(classes):
                if j == t:
                    continue
                what = f"the traces of classes {t} and {j}"
                cross, _ = _minor_sign([traces[t], traces[j]], cap, what)
                if cross == 0:
                    raise DegeneratePlane("coincident line traces")
                (e2 if cross > 0 else e1).append(j)
            # the traces as a rank-2 arrangement: by linearity the class signs
            # at x*p + y*q are the certified chamber signs at (x, y)
            lines = [
                CoarseClass(j, (LyapunovFunctional(tr, 1),), 1)
                for j, tr in enumerate(traces)
            ]
            by_signs = {ch.signs: ch.witness for ch in weyl_chambers(lines, cap)}
            witnesses = {}
            # signs on (target, E1, E2): a1 (-,-,+), c1 (+,-,+), a2 (-,+,-), c2 (+,+,-)
            for name, st, s1 in (("a1", -1, -1), ("c1", 1, -1), ("a2", -1, 1), ("c2", 1, 1)):
                signs = tuple(
                    st if j == t else s1 if j in e1 else -s1 for j in range(len(classes))
                )
                x, y = by_signs[signs]
                witnesses[name] = _integer_scale([x * pi_ + y * qi for pi_, qi in zip(p, q)])
            return Splitting(
                target=t,
                e1_classes=tuple(sorted(e1)),
                e2_classes=tuple(sorted(e2)),
                plane=(p, q),
                m=1 + len(e2),
                **witnesses,
            )
        except (DegeneratePlane, PrecisionExhausted, WitnessSearchExhausted):
            continue
    raise DegeneratePlane("no generic plane found within retry budget")


def fast_stable_element(
    splitting: Splitting,
    side: int,
    classes: list[CoarseClass],
    cap: int = DEFAULT_CAP,
) -> tuple[tuple[Fraction, ...], dict]:
    """Rational b with max_{chi in E_side} chi(b) < min_{chi in target}
    chi(b) < 0, with a certified positive margin.

    b = x*p + y*q on the splitting's plane, for (x, y) the witness of the
    chamber of the traces that is negative on every row: f - g for each side
    member f and target member g, then each target member g.  Rows that are
    positive multiples of each other in R^k (g and 2g in a class, or f - g
    and 2f - 2g) share their signs, so only the first of each group is
    traced.  In rank 2 a minor of the traces is zero only when two rows are
    proportional, which the exact tests decide; members of one class make
    rank-k minors vanish without that.  An empty side takes b = a1 (a2),
    which contracts the target.  The margin is certified at the first
    precision of the cap's schedule that separates it."""
    if side not in (1, 2):
        raise ValueError("side must be 1 or 2")
    side_idx = splitting.e1_classes if side == 1 else splitting.e2_classes
    target = classes[splitting.target]
    side_members = [f for j in side_idx for f in classes[j].members]
    target_members = list(target.members)
    if side_members:
        rows = [
            LyapunovFunctional(tuple(a - b for a, b in zip(f.values, g.values)), 1)
            for f in side_members
            for g in target_members
        ] + target_members
        p, q = splitting.plane
        lines = [
            CoarseClass(c.index, (LyapunovFunctional((c.value_at(p), c.value_at(q)), 1),), 1)
            for c in coarse_classes(rows, cap)
        ]
        negative = [ch.witness for ch in weyl_chambers(lines, cap) if max(ch.signs) < 0]
        if not negative:
            # the chamber lies next to the target's trace line, on the side's
            # side; the chamber signs are exact, so a circuit certifies it empty
            raise DegeneratePlane(f"no element contracts side {side} faster than the target")
        x, y = negative[0]
        b = _integer_scale([x * pi_ + y * qi for pi_, qi in zip(p, q)])
    else:
        b = splitting.a1 if side == 1 else splitting.a2
    b = tuple(Fraction(v) for v in b)
    for bits in precisions(cap):
        margin = _certify_fast_stable(b, side_members, target_members, bits)
        if margin is not None:
            return b, {"margin": margin, "bits": bits}
    raise PrecisionExhausted("margin of the fast stable element unresolved", cap)


def _certify_fast_stable(b, side_members, target_members, bits) -> Fraction | None:
    """Certified margin for chi_side(b) < chi_target(b) < 0, or None."""
    margin = None
    for f in side_members:
        for g in target_members:
            _, hi = (f.value_at(b) - g.value_at(b)).interval(bits)
            if hi >= 0:
                return None
            margin = -hi if margin is None else min(margin, -hi)
    for g in target_members:
        _, hi = g.value_at(b).interval(bits)
        if hi >= 0:
            return None
        margin = -hi if margin is None else min(margin, -hi)
    return margin
