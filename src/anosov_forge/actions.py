"""Z^k actions by commuting unimodular integer matrices.

Validation, semisimplicity, rational primary decomposition following the
kernel-of-products construction, invariant complements via an exact
projection system, and the totally-reducible decision through the
semisimplicity equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import linalg
from .errors import NonCommuting, NotInvariant, NotUnimodular, ShapeMismatch
from .intpoly import IntPolynomial, factor_cached, squarefree_part
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
    basis: tuple[tuple[Fraction, ...], ...]

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def basis_vectors(self) -> list[list[Fraction]]:
        return [list(v) for v in self.basis]

    @classmethod
    def from_vectors(cls, vectors) -> "RationalSubspace":
        vecs = [[Fraction(x) for x in v] for v in vectors]
        if vecs and linalg.rank(linalg.from_columns(vecs)) != len(vecs):
            raise ValueError("basis vectors are linearly dependent")
        return cls(tuple(tuple(v) for v in vecs))


def validate(generators, name: str = "") -> ValidatedAction:
    """Check shapes, commutation and unimodularity; raise on violations."""
    mats = [[[int(v) for v in row] for row in g] for g in generators]
    if not mats:
        raise ShapeMismatch("need at least one generator")
    d = len(mats[0])
    for g in mats:
        if len(g) != d or any(len(row) != d for row in g):
            raise ShapeMismatch("generators must be square matrices of equal size")
    qmats = [linalg.to_mat(g) for g in mats]
    for i, g in enumerate(qmats):
        dv = linalg.det(g)
        if dv not in (1, -1):
            raise NotUnimodular(i, dv)
    for i in range(len(qmats)):
        for j in range(i + 1, len(qmats)):
            if not linalg.mat_eq(
                linalg.mat_mul(qmats[i], qmats[j]), linalg.mat_mul(qmats[j], qmats[i])
            ):
                raise NonCommuting(i, j)
    return ValidatedAction(
        dim=d,
        rank=len(mats),
        generators=tuple(tuple(tuple(row) for row in g) for g in mats),
        name=name,
    )


def is_semisimple(action: ValidatedAction) -> bool:
    """True iff every generator's minimal polynomial is squarefree over Q,
    that is iff on every joint primary component the irreducible factor
    labelling each generator annihilates its restriction there."""
    return all(
        linalg.is_zero_mat(linalg.poly_at_matrix(factor, mat))
        for comp in joint_primary_components(action)
        for (factor, _), mat in zip(comp.labels, comp.mats)
    )


def _frozen(a) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in a)


def rational_primary_decomposition(
    a: Mat | list,
) -> tuple[tuple[IntPolynomial, int, RationalSubspace], ...]:
    """Primary components ker P_i(A)^{d_i}, one per irreducible factor P_i
    of multiplicity d_i in the characteristic polynomial.

    Computed once per matrix; the result is immutable and shared.
    """
    return _primary_decomposition(_frozen(a))


@lru_cache(maxsize=256)
def _primary_decomposition(
    a: tuple[tuple[Fraction, ...], ...],
) -> tuple[tuple[IntPolynomial, int, RationalSubspace], ...]:
    m = [list(row) for row in a]
    parts = []
    for factor, mult in factor_cached(linalg.charpoly(m)):
        if factor.degree < 1:
            continue
        base = linalg.poly_at_matrix(factor, m)
        power = base
        for _ in range(mult - 1):
            power = linalg.mat_mul(power, base)
        kernel = linalg.nullspace(power)
        parts.append((factor, mult, RationalSubspace.from_vectors(kernel)))
    return tuple(parts)


def semisimple_part(a: Mat) -> Mat:
    """Jordan-Chevalley semisimple summand, computed by Newton iteration in Q[A].

    The iteration runs on m0, the product of the distinct irreducible
    factors of the characteristic polynomial (the squarefree part of the
    minimal polynomial); A is semisimple iff m0(A) = 0.
    """
    m0 = squarefree_part(linalg.charpoly(a))
    s = [row[:] for row in a]
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
    """Invariant direct complement of an invariant subspace, or None.

    Solves for a projection commuting with every generator, fixing the
    subspace pointwise, with image inside the subspace; its kernel is the
    complement.  Infeasibility of the linear system is exactly the failure
    of an invariant complement to exist.
    """
    if not generators:
        raise ValueError("need at least one generator")
    d = len(generators[0])
    basis = subspace.basis_vectors()
    for idx, g in enumerate(generators):
        for v in basis:
            if not linalg.in_span(basis, linalg.mat_vec(g, v)):
                raise NotInvariant(idx)
    if len(basis) == d:
        return RationalSubspace.from_vectors([])
    if not basis:
        return RationalSubspace.from_vectors(linalg.identity(d))

    # rows annihilating the subspace: left kernel of the basis matrix
    bmat = linalg.from_columns(basis)
    ann = linalg.nullspace(linalg.transpose(bmat))

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []

    def entry(i: int, j: int) -> int:
        return i * d + j

    # P b = b for basis vectors b
    for v in basis:
        for i in range(d):
            row = [Fraction(0)] * (d * d)
            for j in range(d):
                row[entry(i, j)] = v[j]
            rows.append(row)
            rhs.append(v[i])
    # c^T P = 0 for annihilator rows c (image inside the subspace)
    for c in ann:
        for j in range(d):
            row = [Fraction(0)] * (d * d)
            for i in range(d):
                row[entry(i, j)] = c[i]
            rows.append(row)
            rhs.append(Fraction(0))
    # P A = A P for every generator
    for g in generators:
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * (d * d)
                for t in range(d):
                    row[entry(i, t)] += g[t][j]
                    row[entry(t, j)] -= g[i][t]
                rows.append(row)
                rhs.append(Fraction(0))

    sol = linalg.solve(rows, rhs)
    if sol is None:
        return None
    proj = [[sol[entry(i, j)] for j in range(d)] for i in range(d)]
    kernel = linalg.nullspace(proj)
    return RationalSubspace.from_vectors(kernel)


@dataclass(frozen=True)
class PrimaryComponent:
    """A joint primary component: its ambient basis, the restrictions of all
    generators in that basis, and one (factor, multiplicity) label per
    generator refined so far."""

    basis: tuple[tuple[Fraction, ...], ...]
    mats: tuple[tuple[tuple[Fraction, ...], ...], ...]
    labels: tuple[tuple[IntPolynomial, int], ...]


@lru_cache(maxsize=64)
def joint_primary_components(action: ValidatedAction) -> tuple[PrimaryComponent, ...]:
    """Simultaneous primary decomposition, refining one generator at a time.

    Computed once per action; the result is immutable and shared.
    """
    d = action.dim
    identity = _frozen(linalg.identity(d))
    comps = [PrimaryComponent(identity, tuple(_frozen(g) for g in action.generators), ())]
    for gi in range(action.rank):
        refined = []
        for comp in comps:
            for factor, mult, sub in rational_primary_decomposition(comp.mats[gi]):
                local = sub.basis_vectors()
                # ambient basis of the refined component
                ambient = tuple(
                    tuple(
                        sum(comp.basis[t][j] * v[t] for t in range(len(v)))
                        for j in range(d)
                    )
                    for v in local
                )
                new_mats = tuple(
                    _frozen(linalg.restrict_to_invariant(m, local))
                    for m in comp.mats
                )
                refined.append(
                    PrimaryComponent(ambient, new_mats, comp.labels + ((factor, mult),))
                )
        comps = refined
    return tuple(comps)


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

    m = linalg.to_mat(a)
    if linalg.det(m) not in (1, -1):
        raise NotUnimodular(0, linalg.det(m))
    return not has_unit_modulus_root(linalg.charpoly(m))


def product_matrix(action: ValidatedAction, exponents) -> Mat:
    """prod A_i^{b_i} with exact inverses for negative exponents."""
    if len(exponents) != action.rank:
        raise ShapeMismatch("exponent vector length must equal the rank")
    out = linalg.identity(action.dim)
    for g, e in zip(action.generator_mats(), exponents):
        if e:
            out = linalg.mat_mul(out, linalg.mat_pow(g, int(e)))
    return out
