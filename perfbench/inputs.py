"""Seeded inputs for the three workloads.

Every torus action here is built from a construction the oracle can read
back: generators q_i(A) for integer polynomials q_i in a block-companion
matrix A, or an explicit list of matrices together with their joint
eigenvalue tuples.  Random choices come from random.Random(seed) only, and
a candidate is kept or rejected on numeric properties of its construction
(irreducible, no root of modulus 1, generic arrangement), never on what
the program does with it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import oracle

CARTAN_P = [1, -3, 0, 1]  # x^3 - 3x + 1, three real roots, all units
CARTAN_T4_P = [-1, -5, -1, 5, 1]  # x^4 + 5x^3 - x^2 - 5x - 1
GOLDEN_SQ_P = [1, -3, 1]  # x^2 - 3x + 1, roots phi^2 and phi^-2

# Lowered precision caps embedded in the rank-3 files (see README.md).
RANK3_CAP_BITS = 128

# -- constructions --------------------------------------------------------------


class Action:
    """A torus action file plus what the oracle needs to audit it."""

    def __init__(self, name, gens, tuples_fn, semisimple=True, options=None):
        self.name = name
        self.gens = gens
        self.tuples_fn = tuples_fn
        self.semisimple = semisimple
        self.options = options
        self._tuples = None

    @property
    def dim(self) -> int:
        return len(self.gens[0])

    @property
    def rank(self) -> int:
        return len(self.gens)

    def tuples(self):
        if self._tuples is None:
            self._tuples = self.tuples_fn()
        return self._tuples

    def document(self) -> dict:
        doc = {
            "schema_version": 1,
            "kind": "torus",
            "name": self.name,
            "dim": self.dim,
            "generators": [[v for row in g for v in row] for g in self.gens],
        }
        if self.options:
            doc["options"] = dict(self.options)
        return doc


def polynomial_action(name, p, qs, options=None) -> Action:
    """Generators q(A) for A the companion matrix of the monic p."""
    a = oracle.companion(p)
    gens = [oracle.poly_of_matrix(q, a) for q in qs]
    return Action(
        name, gens, lambda: oracle.joint_tuples([(p, 1)], qs), options=options
    )


def cartan_t3() -> Action:
    return polynomial_action("cartan-t3", CARTAN_P, [[0, 1], [-1, 1]])


def cartan_t4() -> Action:
    """Rank-3 Cartan action on T^4: (A, -(A + I), A - A^2)."""
    return polynomial_action(
        "cartan-t4",
        CARTAN_T4_P,
        [[0, 1], [-1, -1], [0, 1, -1]],
        options={"precision_cap_bits": RANK3_CAP_BITS},
    )


def dependent_pair() -> Action:
    """(A, A^2) for the cartan_t3 generator A: not TNS, since the classes of
    positive and negative log|lambda| are negatively proportional."""
    return polynomial_action("cartan-square", CARTAN_P, [[0, 1], [0, 0, 1]])


def fibonacci() -> Action:
    return Action(
        "fibonacci",
        [[[1, 1], [1, 0]]],
        lambda: [(r,) for r in oracle.roots([-1, -1, 1])],
    )


def _golden_square_pair(name, lower_left, lower_right, semisimple) -> Action:
    """[[2,1],[1,1]] on the first block and `lower_right` (same
    characteristic polynomial x^2 - 3x + 1) on the second, coupled by
    `lower_left`; the second generator is the square of the first."""
    g = [
        [2, 1, 0, 0],
        [1, 1, 0, 0],
        [lower_left[0][0], lower_left[0][1], lower_right[0][0], lower_right[0][1]],
        [lower_left[1][0], lower_left[1][1], lower_right[1][0], lower_right[1][1]],
    ]
    return Action(
        name,
        [g, oracle.mat_mul(g, g)],
        lambda: oracle.joint_tuples([(GOLDEN_SQ_P, 2)], [[0, 1], [0, 0, 1]]),
        semisimple=semisimple,
    )


def example82() -> Action:
    """A Jordan-type coupling of two golden blocks: not semisimple."""
    return _golden_square_pair("example-8-2", [[1, 0], [0, 1]], [[2, 1], [1, 1]], False)


def symplectic_pair() -> Action:
    """Golden block plus its inverse-like block: lambda and 1/lambda give
    negatively proportional functionals, so the pair is not TNS."""
    return _golden_square_pair(
        "symplectic-pair", [[0, 0], [0, 0]], [[1, -1], [-1, 2]], True
    )


def fixture_actions() -> list[Action]:
    return [cartan_t3(), fibonacci(), example82(), symplectic_pair()]


# -- seeded polynomial families -------------------------------------------------


def _generic(funcs, rank: int) -> bool:
    """Every rank-sized set of distinct functionals is independent well
    away from the TOL band, so the arrangement is generic."""
    vecs = [f.vec for f in funcs]
    if any(oracle.norm(v) < 1e-6 for v in vecs):
        return False
    size = min(rank, len(vecs))
    for sub in itertools.combinations(vecs, size):
        if oracle.numeric_rank(sub, 1e-8) < size:
            return False
    return True


def random_unit_polynomial(rng: random.Random, d: int, height: int = 3) -> list[int]:
    """Monic irreducible degree-d p with p(0) = +-1 and p(1) = +-1, no root
    within 1e-20 of the unit circle, and a generic rank-2 arrangement for
    the pair (A, A - I)."""
    while True:
        p = [rng.choice((-1, 1))] + [rng.randint(-height, height) for _ in range(d - 1)]
        p.append(1)
        if sum(p) not in (1, -1):
            continue
        rs = oracle.roots(p)
        if any(abs(abs(r) - 1) < 1e-20 for r in rs):
            continue
        if not oracle.is_irreducible(p):
            continue
        funcs, _ = oracle.functionals(oracle.joint_tuples([(p, 1)], [[0, 1], [-1, 1]]))
        if _generic(funcs, 2):
            return p


def spectral_actions(rng: random.Random, counts: dict[int, int]) -> list[Action]:
    """counts[d] seeded (A, A - I) pairs of each degree d, with distinct
    polynomials: a repeat would be served from the caches of the round."""
    out, seen = [], set()
    for d, count in sorted(counts.items()):
        n = 0
        while n < count:
            p = random_unit_polynomial(rng, d)
            if tuple(p) in seen:
                continue
            seen.add(tuple(p))
            out.append(polynomial_action(f"pair-d{d}-{n}", p, [[0, 1], [-1, 1]]))
            n += 1
    return out


def totally_real_quartics(height: int = 6) -> list[list[int]]:
    """Every irreducible totally real monic quartic with coefficients in
    [-height, height] and p(0), p(1), p(-1) all +-1, in a fixed order."""
    out = []
    for c1, c2, c3 in itertools.product(range(-height, height + 1), repeat=3):
        for c0 in (-1, 1):
            p = [c0, c1, c2, c3, 1]
            if sum(p) not in (1, -1) or c0 - c1 + c2 - c3 + 1 not in (1, -1):
                continue
            rs = oracle.roots(p)
            if any(abs(r.imag) > 1e-20 for r in rs):
                continue
            if oracle.is_irreducible(p):
                out.append(p)
    return out


def rank3_actions(rng: random.Random, count: int) -> list[Action]:
    """(A, A - I, A + I) for seeded totally real quartics, with the lowered
    cap embedded; the three are units because p(0), p(1), p(-1) = +-1."""
    out = []
    pool = totally_real_quartics()
    rng.shuffle(pool)
    for p in pool:
        qs = [[0, 1], [-1, 1], [1, 1]]
        funcs, _ = oracle.functionals(oracle.joint_tuples([(p, 1)], qs))
        if not _generic(funcs, 3):
            continue
        out.append(
            polynomial_action(
                f"quartic-{len(out)}", p, qs, {"precision_cap_bits": RANK3_CAP_BITS}
            )
        )
        if len(out) == count:
            return out
    raise RuntimeError("not enough generic totally real quartics")


# -- subresonance spectra -------------------------------------------------------


def criterion7_family(length: int) -> list[tuple[list[Fraction], list[int]]]:
    """Spectra with distinct exponents from -1..-6 (decreasing) and
    multiplicities 1..3, the family of acceptance criterion 7."""
    out = []
    for chis in itertools.combinations(range(-1, -7, -1), length):
        exps = [Fraction(c) for c in sorted(chis, reverse=True)]
        for mults in itertools.product((1, 2, 3), repeat=length):
            out.append((exps, list(mults)))
    return out


def spectrum_document(exps, mults) -> dict:
    return {
        "schema_version": 1,
        "kind": "spectrum",
        "exponents": [str(e) for e in exps],
        "multiplicities": list(mults),
    }


def chamber_elements(
    action: Action, count: int, radius: int = 6, max_ratio: float = 4.0
) -> list[tuple]:
    """Up to `count` integer elements, the smallest found in distinct Weyl
    chambers (in max-norm, then in a fixed order), each at least 0.05 away
    from every kernel, with stable exponents at least 0.05 apart and within
    a factor max_ratio of each other.  The ratio sets the size of the
    subresonance problem: the degree caps, and so the number of candidate
    indices, grow with it."""
    funcs, _ = oracle.functionals(action.tuples())
    classes = oracle.Classes(funcs)
    points = sorted(
        (b for b in itertools.product(range(-radius, radius + 1), repeat=action.rank) if any(b)),
        key=lambda b: (max(map(abs, b)), sum(x * x for x in b), b),
    )
    seen, out = set(), []
    for b in points:
        vals = [classes.value(c, b) for c in range(len(classes))]
        if any(abs(v) < 0.05 for v in vals):
            continue
        signs = tuple(1 if v > 0 else -1 for v in vals)
        stable = sorted(v for v in vals if v < 0)
        if signs in seen or any(b2 - a2 < 0.05 for a2, b2 in zip(stable, stable[1:])):
            continue
        if not stable or stable[0] / stable[-1] > max_ratio:
            continue
        seen.add(signs)
        out.append(b)
        if len(out) == count:
            break
    return out
