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
from itertools import combinations

from .actions import (
    RationalSubspace,
    ValidatedAction,
    invariant_complement,
    is_semisimple,
    validate,
)
from .errors import InputError, ShapeMismatch

Vec = list[Fraction]
# a sparse vector: basis index -> nonzero coefficient
Sparse = dict[int, Fraction]


@dataclass(frozen=True)
class GradedAlgebraAction:
    """Commuting automorphisms of a graded rational Lie algebra.

    grading lists the dimensions of the graded components; basis indices run
    through degree-1 vectors first, then degree 2, and so on.  brackets is
    the sorted tuple of nonzero structure constants (a, b, c, value) with
    a < b: the coordinate of e_c in [e_a, e_b].  action holds the
    automorphisms as a validated action on the full lattice.
    """

    grading: tuple[int, ...]
    brackets: tuple[tuple[int, int, int, Fraction], ...]
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


def bracket_table(brackets) -> dict[tuple[int, int], Sparse]:
    """[e_a, e_b] for both orders of every nonzero pair of the structure
    constants (a, b, c, value)."""
    table: dict[tuple[int, int], Sparse] = {}
    for a, b, c, value in brackets:
        table.setdefault((a, b), {})[c] = value
        table.setdefault((b, a), {})[c] = -value
    return table


def _combine(terms) -> Sparse:
    """The sum of x * v over the terms (x, v), with zero coefficients dropped."""
    out: Sparse = {}
    for x, v in terms:
        for i, y in v.items():
            out[i] = out.get(i, 0) + x * y
    return {i: y for i, y in out.items() if y}


def bracket(table, u: Sparse, v: Sparse) -> Sparse:
    """[u, v] of sparse vectors, with zero coefficients dropped."""
    return _combine((x * y, table.get((a, b), {})) for a, x in u.items() for b, y in v.items())


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

    # sum the entries of each ordered pair and target
    raw: dict[tuple[int, int], Sparse] = {}
    for a, b, c, value in structure_constants:
        a, b, c = int(a), int(b), int(c)
        if not (0 <= a < d and 0 <= b < d and 0 <= c < d):
            raise InputError("structure constant index out of range", field="structure_constants")
        coords = raw.setdefault((a, b), {})
        coords[c] = coords.get(c, 0) + Fraction(value)
    for (a, b), coords in raw.items():
        if a == b and any(coords.values()):
            raise InputError("nonzero bracket [e_a, e_a]", field="structure_constants")
    # antisymmetry: merge/check mirrored entries
    for (a, b), coords in raw.items():
        mirror = raw.get((b, a)) if a < b else None
        if mirror is not None and _combine([(1, coords), (1, mirror)]):
            raise InputError("antisymmetry violated", field="structure_constants")
    canon: list[tuple[int, int, int, Fraction]] = []
    for a, b in sorted({(min(a, b), max(a, b)) for a, b in raw if a != b}):
        coords = _combine([(1, raw[(a, b)])] if (a, b) in raw else [(-1, raw[(b, a)])])
        if not coords:
            continue
        # grading compatibility
        target = degree[a] + degree[b]
        if target > step:
            raise InputError("bracket exceeds the step", field="structure_constants")
        if any(degree[c] != target for c in coords):
            raise InputError("bracket violates the grading", field="structure_constants")
        canon += [(a, b, c, coords[c]) for c in sorted(coords)]
    table = bracket_table(canon)

    # Jacobi identity on the basis triples.  By the checks above a bracket
    # of homogeneous vectors whose degrees add up to more than the step is
    # 0, so every term of a triple of such degrees vanishes on its own.
    for a, b, c in combinations(range(d), 3):
        cyclic = ((a, b, c), (b, c, a), (c, a, b))
        if degree[a] + degree[b] + degree[c] <= step and _combine(
            (1, bracket(table, table.get((x, y), {}), {z: 1})) for x, y, z in cyclic
        ):
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
    # A[e_a, e_b] = [A e_a, A e_b]; a pair whose degrees add up to more than
    # the step has 0 on both sides, since A preserves the grading.
    for idx, g in enumerate(action.generators):
        cols = [{i: row[j] for i, row in enumerate(g) if row[j]} for j in range(d)]
        for a, b in combinations(range(d), 2):
            image = _combine((w, cols[c]) for c, w in table.get((a, b), {}).items())
            if degree[a] + degree[b] <= step and image != bracket(table, cols[a], cols[b]):
                raise InputError(
                    f"generator {idx} is not a Lie algebra automorphism",
                    field="generators",
                )
    return GradedAlgebraAction(grading, tuple(canon), action)


def degree_one_action(g: GradedAlgebraAction) -> ValidatedAction:
    """Induced action on the degree-1 component (the maximal toral quotient
    for free nilpotent inputs)."""
    return validate(
        [g.degree_block(gi, 1) for gi in range(g.rank)],
        name=f"{g.name}/degree1" if g.name else "degree1",
    )


def derived_subalgebra(g: GradedAlgebraAction) -> RationalSubspace:
    """Span of all brackets of basis vectors."""
    rows: dict[tuple[int, int], Vec] = {}
    for a, b, c, value in g.brackets:
        rows.setdefault((a, b), [Fraction(0)] * g.dim)[c] = value
    return RationalSubspace.span(rows.values())


def is_totally_reducible_graded(g: GradedAlgebraAction) -> tuple[bool, dict]:
    """Totally reducible iff the degree-1 quotient action is totally
    reducible (that is, semisimple) and the derived subalgebra D has an
    invariant complement.  The basis brackets are homogeneous and the
    generators preserve the grading, so D is the sum of its degree-m parts
    D_m, and D has an invariant complement iff every D_m has one under the
    degree-m blocks: a projection onto D commuting with the generators
    restricts to one onto each D_m, and complements of the D_m add up."""
    q_ok = is_semisimple(degree_one_action(g))
    derived = derived_subalgebra(g)
    comp: list[Vec] | None = []
    lo = 0
    for m, n in enumerate(g.grading, start=1):
        hi = lo + n
        part = invariant_complement(
            [g.degree_block(gi, m) for gi in range(g.rank)],
            RationalSubspace.span(v[lo:hi] for v in derived.basis),
        )
        if part is None:
            comp = None
            break
        zero = [Fraction(0)]
        comp += [zero * lo + list(v) + zero * (g.dim - hi) for v in part.basis]
        lo = hi
    witness = {
        "degree1_totally_reducible": q_ok,
        "derived_dimension": derived.dimension,
        "derived_complement": None if comp is None else RationalSubspace.span(comp),
    }
    return q_ok and comp is not None, witness
