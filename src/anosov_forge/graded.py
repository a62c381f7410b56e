"""Graded Lie-algebra actions: validation and total reducibility.

A nilmanifold action is ingested at the Lie-algebra level: a graded rational
Lie algebra (structure constants on a declared lattice basis) together with
commuting grading-preserving automorphisms.  Total reducibility reduces to
two exact checks: the induced action on the degree-1 quotient is totally
reducible, and the derived subalgebra admits an invariant complement.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .actions import (
    RationalSubspace,
    ValidatedAction,
    invariant_complement,
    is_semisimple,
    validate,
)
from .errors import InputError, ShapeMismatch

Vec = list[Fraction]


@dataclass(frozen=True)
class GradedAlgebraAction:
    """Commuting automorphisms of a graded rational Lie algebra.

    grading lists the dimensions of the graded components; basis indices run
    through degree-1 vectors first, then degree 2, and so on.  brackets maps
    an ordered basis pair (a, b) with a < b to the bracket coordinates.
    action holds the automorphisms as a validated action on the full lattice.
    """

    grading: tuple[int, ...]
    brackets: tuple[tuple[int, int, tuple[Fraction, ...]], ...]
    action: ValidatedAction

    @property
    def name(self) -> str:
        return self.action.name

    @property
    def dim(self) -> int:
        return self.action.dim

    @property
    def rank(self) -> int:
        return self.action.rank

    @property
    def step(self) -> int:
        return len(self.grading)

    def degree_block(self, gen: int, degree: int) -> list[Vec]:
        lo = sum(self.grading[: degree - 1])
        hi = lo + self.grading[degree - 1]
        g = self.action.generators[gen]
        return [[Fraction(g[i][j]) for j in range(lo, hi)] for i in range(lo, hi)]


def _degrees(grading) -> list[int]:
    """The degree of each basis index."""
    return [deg for deg, n in enumerate(grading, start=1) for _ in range(n)]


def _dense_brackets(d: int, brackets) -> dict[tuple[int, int], Vec]:
    """Dense bracket coordinates for every ordered basis pair."""
    table = {(a, b): [Fraction(0)] * d for a in range(d) for b in range(d)}
    for a, b, coords in brackets:
        table[(a, b)] = list(coords)
        table[(b, a)] = [-c for c in coords]
    return table


def validate_graded(
    grading, structure_constants, generators, name: str = ""
) -> GradedAlgebraAction:
    """Check grading compatibility, antisymmetry, Jacobi, and that every
    generator is a grading-preserving integral automorphism; `validate`
    checks unimodularity and commutation."""
    grading = tuple(int(n) for n in grading)
    if not grading or any(n < 0 for n in grading) or grading[0] < 1:
        raise InputError("invalid grading", field="grading")
    d = sum(grading)
    step = len(grading)
    degree = _degrees(grading)

    # assemble sparse brackets into dense coordinate rows per ordered pair
    raw: dict[tuple[int, int], list[Fraction]] = {}
    for a, b, c, value in structure_constants:
        a, b, c = int(a), int(b), int(c)
        if not (0 <= a < d and 0 <= b < d and 0 <= c < d):
            raise InputError("structure constant index out of range", field="structure_constants")
        key = (a, b)
        raw.setdefault(key, [Fraction(0)] * d)[c] += Fraction(value)
    for (a, b), coords in raw.items():
        if a == b and any(coords):
            raise InputError("nonzero bracket [e_a, e_a]", field="structure_constants")
    # antisymmetry: merge/check mirrored entries
    for (a, b) in list(raw):
        mirror = raw.get((b, a))
        if mirror is not None and a < b:
            if any(x + y != 0 for x, y in zip(raw[(a, b)], mirror)):
                raise InputError("antisymmetry violated", field="structure_constants")
    canon: list[tuple[int, int, tuple[Fraction, ...]]] = []
    for a in range(d):
        for b in range(a + 1, d):
            coords = raw.get((a, b))
            if coords is None and (b, a) in raw:
                coords = [-x for x in raw[(b, a)]]
            if coords is None or not any(coords):
                continue
            # grading compatibility
            target = degree[a] + degree[b]
            if target > step:
                raise InputError("bracket exceeds the step", field="structure_constants")
            for c, x in enumerate(coords):
                if x and degree[c] != target:
                    raise InputError("bracket violates the grading", field="structure_constants")
            canon.append((a, b, tuple(coords)))

    btable = _dense_brackets(d, canon)

    def bracket_vec(u: Vec, v: Vec) -> Vec:
        out = [Fraction(0)] * d
        for a in range(d):
            if not u[a]:
                continue
            for b in range(d):
                if not v[b]:
                    continue
                coeff = u[a] * v[b]
                w = btable[(a, b)]
                for c in range(d):
                    if w[c]:
                        out[c] += coeff * w[c]
        return out

    # Jacobi identity on all basis triples
    for a in range(d):
        for b in range(a + 1, d):
            for c in range(b + 1, d):
                s1 = bracket_vec(btable[(a, b)], _unit(d, c))
                s2 = bracket_vec(btable[(b, c)], _unit(d, a))
                s3 = bracket_vec(btable[(c, a)], _unit(d, b))
                if any(x + y + z != 0 for x, y, z in zip(s1, s2, s3)):
                    raise InputError("Jacobi identity violated", field="structure_constants")

    # generators: square, grading-preserving and integral here; unimodular
    # and commuting in validate; then automorphisms
    mats = []
    for idx, g in enumerate(generators):
        m = [[Fraction(x) for x in row] for row in g]
        if len(m) != d or any(len(row) != d for row in m):
            raise ShapeMismatch(f"generator {idx} is not {d}x{d}")
        for i in range(d):
            for j in range(d):
                if m[i][j] and degree[i] != degree[j]:
                    raise InputError(
                        f"generator {idx} does not preserve the grading",
                        field="generators",
                    )
                if m[i][j].denominator != 1:
                    raise InputError(
                        f"generator {idx} is not integral on the lattice basis",
                        field="generators",
                    )
        mats.append(m)
    action = validate(mats, name=name)
    for idx, m in enumerate(mats):
        cols = linalg.columns(m)
        for a in range(d):
            for b in range(a + 1, d):
                if linalg.mat_vec(m, btable[(a, b)]) != bracket_vec(cols[a], cols[b]):
                    raise InputError(
                        f"generator {idx} is not a Lie algebra automorphism",
                        field="generators",
                    )
    return GradedAlgebraAction(grading, tuple(canon), action)


def _unit(d: int, i: int) -> Vec:
    v = [Fraction(0)] * d
    v[i] = Fraction(1)
    return v


def degree_one_action(g: GradedAlgebraAction) -> ValidatedAction:
    """Induced action on the degree-1 component (the maximal toral quotient
    for free nilpotent inputs)."""
    return validate(
        [g.degree_block(gi, 1) for gi in range(g.rank)],
        name=f"{g.name}/degree1" if g.name else "degree1",
    )


def derived_subalgebra(g: GradedAlgebraAction) -> RationalSubspace:
    """Span of all brackets of basis vectors."""
    spans = [list(coords) for _, _, coords in g.brackets]
    if not spans:
        return RationalSubspace.from_vectors([])
    reduced, pivots = linalg.rref(spans)
    return RationalSubspace.from_vectors(reduced[: len(pivots)])


def is_totally_reducible_graded(g: GradedAlgebraAction) -> tuple[bool, dict]:
    """Totally reducible iff the degree-1 quotient action is totally
    reducible (that is, semisimple) and the derived subalgebra has an
    invariant complement."""
    q_ok = is_semisimple(degree_one_action(g))
    derived = derived_subalgebra(g)
    comp = invariant_complement(g.action.generator_mats(), derived)
    witness = {
        "degree1_totally_reducible": q_ok,
        "derived_dimension": derived.dimension,
        "derived_complement": comp,
    }
    return q_ok and comp is not None, witness
