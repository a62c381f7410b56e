"""Z^k actions by commuting unimodular integer matrices.

Validation, rational primary decomposition following the
kernel-of-products construction, joint components that keep semisimple
parts and decide semisimplicity once, invariant complements from one
exact linear system, and the totally-reducible decision through the
semisimplicity equivalence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import NonCommuting, NotInvariant, NotUnimodular, ShapeMismatch
from .intpoly import IntPolynomial, factor_cached
from .linalg import Mat


@dataclass(frozen=True)
class ValidatedAction:
    dim: int
    rank: int
    generators: tuple[tuple[tuple[int, ...], ...], ...]
    name: str = ""

    def generator_mats(self) -> list[Mat]:
        return [linalg.to_mat(g) for g in self.generators]


@dataclass(frozen=True)
class RationalSubspace:
    """A subspace of Q^d in echelon form: basis rows, and coords, the
    columns where the basis is the identity.  A vector of the subspace is
    the sum of the basis rows weighted by its entries at coords."""

    basis: tuple[tuple[Fraction, ...], ...]
    coords: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    @classmethod
    def span(cls, vectors) -> "RationalSubspace":
        """The span of the vectors, as the nonzero rows of their rref."""
        reduced, pivots = linalg.rref(vectors)
        return cls(_frozen(reduced[: len(pivots)]), tuple(pivots))

    @classmethod
    def kernel(cls, a) -> "RationalSubspace":
        """The right kernel of the matrix a."""
        basis, free = linalg.nullspace(a)
        return cls(_frozen(basis), tuple(free))

    def restrict(self, a) -> Mat:
        """The matrix of a on the subspace in its basis, read off at coords:
        column j holds the entries of a v_j there.  The subspace must be
        invariant under a."""
        support = [[(t, x) for t, x in enumerate(v) if x] for v in self.basis]
        return [[sum(a[c][t] * x for t, x in nz) for nz in support] for c in self.coords]


def validate(generators, name: str = "") -> ValidatedAction:
    """Check shapes, commutation and unimodularity; raise on violations."""
    mats = [[[int(v) for v in row] for row in g] for g in generators]
    if not mats:
        raise ShapeMismatch("need at least one generator")
    d = len(mats[0])
    for g in mats:
        if len(g) != d or any(len(row) != d for row in g):
            raise ShapeMismatch("generators must be square matrices of equal size")
    for i, g in enumerate(mats):
        dv = linalg.det(g)
        if dv not in (1, -1):
            raise NotUnimodular(i, dv)
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if linalg.int_mat_mul(mats[i], mats[j]) != linalg.int_mat_mul(mats[j], mats[i]):
                raise NonCommuting(i, j)
    return ValidatedAction(
        dim=d,
        rank=len(mats),
        generators=tuple(tuple(tuple(row) for row in g) for g in mats),
        name=name,
    )


def is_semisimple(action: ValidatedAction) -> bool:
    """True iff every generator's minimal polynomial is squarefree over Q,
    that is iff every joint primary component is flagged semisimple."""
    return all(comp.semisimple for comp in joint_primary_components(action))


def _frozen(a) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in a)


def rational_primary_decomposition(
    a: Mat | list,
) -> tuple[tuple[IntPolynomial, int, RationalSubspace], ...]:
    """Primary components ker P_i(A)^{d_i}, one per irreducible factor P_i
    of multiplicity d_i in the characteristic polynomial.

    ker P_i(A) lies in ker P_i(A)^{d_i}, whose dimension is d_i deg P_i, so
    the two are equal when ker P_i(A) has that dimension, as on every
    component where A is semisimple; P_i^{d_i} is evaluated only
    otherwise.  Equal kernels have the same echelon basis."""
    parts = []
    for factor, mult in factor_cached(linalg.charpoly(a)):
        if factor.degree < 1:
            continue
        kernel = RationalSubspace.kernel(linalg.poly_at_matrix(factor, a))
        if kernel.dimension != mult * factor.degree:
            # one integer evaluation of the product polynomial P_i^{d_i}
            power = math.prod([factor] * mult, start=IntPolynomial([1]))
            kernel = RationalSubspace.kernel(linalg.poly_at_matrix(power, a))
        parts.append((factor, mult, kernel))
    return tuple(parts)


def semisimple_part(a: Mat, m0: IntPolynomial) -> Mat:
    """Jordan-Chevalley semisimple summand, computed by Newton iteration in Q[A].

    The iteration runs on the given m0, the product of the distinct
    irreducible factors of the characteristic polynomial (the squarefree
    part of the minimal polynomial); A is semisimple iff m0(A) = 0, and
    then A itself is returned.
    """
    s = a
    deriv = m0.derivative()
    for _ in range(len(a).bit_length() + 2):
        val = linalg.poly_at_matrix(m0, s)
        if linalg.is_zero_mat(val):
            return s
        dval = linalg.poly_at_matrix(deriv, s)
        s = linalg.mat_sub(s, linalg.mat_mul(val, linalg.inverse(dval)))
    if not linalg.is_zero_mat(linalg.poly_at_matrix(m0, s)):
        raise RuntimeError("semisimple-part iteration did not converge")
    return s


def invariant_complement(
    generators: list[Mat], subspace: RationalSubspace
) -> RationalSubspace | None:
    """Invariant direct complement of an invariant subspace V, or None.

    With R_g the restriction of A_g to V, solves X V = I and X A_g = R_g X
    for a map X onto the coordinates of V (m d unknowns for dim V = m in
    Q^d); ker X is then an invariant complement.  Such an X exists iff V
    has an invariant complement W, since the projection onto V along W, in
    the coordinates of V, is one (Roth, Proc. AMS 3, 1952); so an
    inconsistent system is exactly the failure of a complement to exist.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d, m = len(generators[0]), subspace.dimension
    basis = subspace.basis
    if m == d:
        return RationalSubspace.span([])
    restrictions = [subspace.restrict(g) for g in generators]
    for idx, (g, r) in enumerate(zip(generators, restrictions)):
        av = [linalg.mat_vec(g, v) for v in basis]
        vr = [[sum(r[i][j] * basis[i][t] for i in range(m)) for t in range(d)] for j in range(m)]
        if av != vr:
            raise NotInvariant(idx)
    if not m:
        return RationalSubspace.span(linalg.identity(d))

    # unknown i * d + t is X[i][t]
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        for j, v in enumerate(basis):  # X v_j = e_j
            row = [Fraction(0)] * (m * d)
            row[i * d : (i + 1) * d] = v
            rows.append(row)
            rhs.append(Fraction(int(i == j)))
    for g, r in zip(generators, restrictions):  # X A = R X
        for i in range(m):
            for j in range(d):
                row = [Fraction(0)] * (m * d)
                for t in range(d):
                    row[i * d + t] += g[t][j]
                for s in range(m):
                    row[s * d + j] -= r[i][s]
                rows.append(row)
                rhs.append(Fraction(0))

    (sol,) = linalg.solve(rows, [rhs])
    if sol is None:
        return None
    return RationalSubspace.kernel([sol[i * d : (i + 1) * d] for i in range(m)])


@dataclass(frozen=True)
class PrimaryComponent:
    """A joint primary component: the semisimple parts of the restrictions
    of all generators to it, in one basis, one (factor, multiplicity)
    label per generator, and whether every restriction was semisimple
    already.  Each label annihilates its matrix, whose characteristic
    polynomial is a power of the label."""

    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]
    labels: tuple[tuple[IntPolynomial, int], ...]
    semisimple: bool

    @property
    def dim(self) -> int:
        return len(self.mats[0])


@lru_cache(maxsize=64)
def joint_primary_components(action: ValidatedAction) -> tuple[PrimaryComponent, ...]:
    """Simultaneous primary decomposition, refining one generator at a time:
    each primary component of the next generator on a component is invariant
    under all generators, which restrict to it by reading coordinates.

    Each restriction is then replaced by its semisimple part for its label,
    the squarefree part of its minimal polynomial there: the restriction
    itself exactly when the label annihilates it, the one test of
    semisimplicity.

    Computed once per action; the result is immutable and shared.
    """
    comps = [(tuple(_frozen(g) for g in action.generators), ())]
    for gi in range(action.rank):
        comps = [
            (tuple(_frozen(sub.restrict(m)) for m in mats), labels + ((factor, mult),))
            for mats, labels in comps
            for factor, mult, sub in rational_primary_decomposition(mats[gi])
        ]
    out = []
    for mats, labels in comps:
        semis = [semisimple_part(m, factor) for m, (factor, _) in zip(mats, labels)]
        flag = all(s is m for s, m in zip(semis, mats))
        out.append(PrimaryComponent(tuple(map(_frozen, semis)), labels, flag))
    return tuple(out)


def is_totally_reducible(
    action: ValidatedAction,
) -> tuple[bool, tuple[PrimaryComponent, ...] | None]:
    """Totally reducible <=> semisimple; returns a witness decomposition when true.

    The witness is the joint primary component list; each component is
    invariant under every generator and they span Q^d.
    """
    if not is_semisimple(action):
        return False, None
    return True, joint_primary_components(action)


def is_anosov_matrix(a) -> bool:
    """No eigenvalue on the unit circle (matrix must be unimodular)."""
    from .modulus import has_unit_modulus_root

    dv = linalg.det(a)
    if dv not in (1, -1):
        raise NotUnimodular(0, dv)
    return not has_unit_modulus_root(linalg.charpoly(a))


def product_matrix(action: ValidatedAction, exponents) -> Mat:
    """prod A_i^{b_i} with exact inverses for negative exponents."""
    if len(exponents) != action.rank:
        raise ShapeMismatch("exponent vector length must equal the rank")
    out = linalg.identity(action.dim)
    for g, e in zip(action.generator_mats(), exponents):
        if e:
            out = linalg.mat_mul(out, linalg.mat_pow(g, int(e)))
    return out
