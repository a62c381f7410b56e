"""Free nilpotent lifts: Hall bases and induced graded matrices.

A linear action on R^d extends canonically to the free k-step nilpotent Lie
algebra on d generators.  We fix a classical Hall basis (ordered by degree,
then by construction order) so structure constants — and hence every induced
matrix — are reproducible byte for byte.  The induced matrices are block
diagonal over the grading, and the eigenvalues of a degree-m block are
m-fold products of base eigenvalues.  So the paper-style eigenvalue-product
criterion for a lifted element b is decided exactly by
`is_anosov_matrix(product_matrix(lift.action, b))`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .actions import ValidatedAction, validate
from .errors import SizeCap
from .graded import GradedAlgebraAction, bracket, bracket_table

# the largest lift dimension that hall_basis builds
SIZE_CAP = 2000


@dataclass(frozen=True)
class HallBasis:
    """Hall words for the free k-step nilpotent Lie algebra on d generators.

    words[i] = (degree, left, right); generators have left = right = -1 and
    occupy indices 0..d-1.  A bracket word [u, v] requires u < v and, when
    v = [a, b], a <= u (with indices compared in basis order).
    """

    generators_count: int
    step: int
    words: tuple[tuple[int, int, int], ...]

    @property
    def dimension(self) -> int:
        return len(self.words)

    def degree_dimensions(self) -> tuple[int, ...]:
        out = [0] * self.step
        for deg, _, _ in self.words:
            out[deg - 1] += 1
        return tuple(out)


def _mobius(n: int) -> int:
    """Moebius function, by trial division."""
    out, q = 1, 2
    while q * q <= n:
        if n % q == 0:
            n //= q
            if n % q == 0:
                return 0
            out = -out
        q += 1
    return -out if n > 1 else out


def witt_dimension(d: int, m: int) -> int:
    """Dimension of the degree-m component of the free Lie algebra on d
    generators: (1/m) sum_{e | m} mu(e) d^(m/e)."""
    total = sum(_mobius(e) * d ** (m // e) for e in range(1, m + 1) if m % e == 0)
    assert total % m == 0
    return total // m


def hall_basis(d: int, k: int) -> HallBasis:
    """Classical Hall set up to degree k, in degree-then-construction order."""
    if d < 1 or k < 1:
        raise ValueError("need d >= 1 generators and step k >= 1")
    expected = sum(witt_dimension(d, m) for m in range(1, k + 1))
    if expected > SIZE_CAP:
        raise SizeCap(expected, SIZE_CAP)
    words: list[tuple[int, int, int]] = [(1, -1, -1) for _ in range(d)]
    by_degree: dict[int, list[int]] = {1: list(range(d))}
    for m in range(2, k + 1):
        new: list[int] = []
        for p in range(1, m):
            q = m - p
            for u in by_degree.get(p, []):
                for v in by_degree.get(q, []):
                    if u >= v:
                        continue
                    _, vl, _ = words[v]
                    if vl != -1 and vl > u:
                        continue
                    words.append((m, u, v))
                    new.append(len(words) - 1)
        # re-emit the degree-m words in ascending (left, right) order
        block = sorted((words[i] for i in new), key=lambda w: (w[1], w[2]))
        base = len(words) - len(new)
        for off, w in enumerate(block):
            words[base + off] = w
        by_degree[m] = list(range(base, len(words)))
    basis = HallBasis(d, k, tuple(words))
    assert basis.degree_dimensions() == tuple(
        witt_dimension(d, m) for m in range(1, k + 1)
    )
    return basis


def structure_constants(basis: HallBasis) -> list[tuple[int, int, int, int]]:
    """Sparse integer quadruples (a, b, c, value) for [e_a, e_b], a < b,
    from the memoized brackets of basis words."""
    words = basis.words
    index_of = {(l, r): i for i, (deg, l, r) in enumerate(words) if l != -1}

    @lru_cache(maxsize=None)
    def bw(u: int, v: int) -> tuple[tuple[int, int], ...]:
        if u == v:
            return ()
        if u > v:
            return tuple((i, -c) for i, c in bw(v, u))
        du, dv = words[u][0], words[v][0]
        if du + dv > basis.step:
            return ()
        _, vl, vr = words[v]
        if vl == -1 or vl <= u:
            return ((index_of[(u, v)], 1),)
        # v = [a, b] with a > u: Jacobi rewrite [u,[a,b]] = [[u,a],b] + [a,[u,b]]
        out: dict[int, int] = {}
        for i, c in bw(u, vl):
            for j, c2 in bw(i, vr):
                out[j] = out.get(j, 0) + c * c2
        for i, c in bw(u, vr):
            for j, c2 in bw(vl, i):
                out[j] = out.get(j, 0) + c * c2
        return tuple((j, c) for j, c in sorted(out.items()) if c)

    n = basis.dimension
    return [(a, b, c, value) for a in range(n) for b in range(a + 1, n) for c, value in bw(a, b)]


def free_nilpotent_lift(action: ValidatedAction, k: int) -> GradedAlgebraAction:
    """Canonical extension of the action to the free k-step nilpotent
    algebra, as a graded action on the Hall basis: each generator acts on a
    Hall word [u, v] by the bracket of the images of u and v."""
    basis = hall_basis(action.dim, k)
    constants = structure_constants(basis)
    table = bracket_table(constants)
    n = basis.dimension
    full = []
    for gen in action.generators:
        # image of each Hall word, as a sparse integer vector over the basis
        images = [{r: row[i] for r, row in enumerate(gen) if row[i]} for i in range(action.dim)]
        for _, left, right in basis.words[action.dim :]:
            images.append(bracket(table, images[left], images[right]))
        full.append([[images[j].get(i, 0) for j in range(n)] for i in range(n)])
    return GradedAlgebraAction(
        basis.degree_dimensions(),
        tuple((a, b, c, Fraction(value)) for a, b, c, value in constants),
        validate(full, name=f"{action.name}-lift{k}" if action.name else ""),
    )
