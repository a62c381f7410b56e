import math
from fractions import Fraction

import mpmath
import pytest

from anosov_forge import linalg
from anosov_forge.actions import is_anosov_matrix, product_matrix, validate
from anosov_forge.errors import SizeCap
from anosov_forge.freenil import (
    free_nilpotent_lift,
    hall_basis,
    structure_constants,
    witt_dimension,
)
from anosov_forge.graded import validate_graded


def lyndon_count(d: int, m: int) -> int:
    """Independent oracle: count Lyndon words of length m over d letters."""

    def words(prefix, length):
        if length == 0:
            yield prefix
            return
        for c in range(d):
            yield from words(prefix + (c,), length - 1)

    def is_lyndon(w):
        return all(w < w[i:] + w[:i] for i in range(1, len(w)))

    return sum(1 for w in words((), m) if is_lyndon(w))


def test_witt_matches_lyndon_oracle():
    for d in range(1, 5):
        for m in range(1, 5):
            assert witt_dimension(d, m) == lyndon_count(d, m)


def test_hall_basis_dimensions():
    assert hall_basis(2, 1).degree_dimensions() == (2,)
    assert hall_basis(2, 2).degree_dimensions() == (2, 1)
    assert hall_basis(2, 3).degree_dimensions() == (2, 1, 2)
    assert hall_basis(3, 2).degree_dimensions() == (3, 3)
    assert hall_basis(2, 5).degree_dimensions() == (2, 1, 2, 3, 6)


def test_hall_basis_size_cap():
    # the free 7-step algebra on 4 generators has dimension 3304 > SIZE_CAP
    with pytest.raises(SizeCap):
        hall_basis(4, 7)


def test_structure_constants_antisymmetric_domain():
    basis = hall_basis(2, 3)
    sc = structure_constants(basis)
    for a, b, c, val in sc:
        assert a < b
        assert val != 0
        # grading: deg(c) = deg(a) + deg(b)
        assert basis.words[c][0] == basis.words[a][0] + basis.words[b][0]


def test_lift_blocks_are_unimodular(fibonacci_action):
    lift = free_nilpotent_lift(fibonacci_action, 3)
    for g in range(lift.rank):
        for deg in range(1, 4):
            assert linalg.det(lift.degree_block(g, deg)) in (1, -1)


def test_lift_functoriality(fibonacci_action):
    # the lift of A^2 in each degree equals the square of the lift of A
    a = fibonacci_action.generators[0]
    a2 = linalg.mat_mul(linalg.to_mat(a), linalg.to_mat(a))
    pair = validate([[list(r) for r in a], [[int(v) for v in r] for r in a2]])
    lift = free_nilpotent_lift(pair, 3)
    for deg in range(1, 4):
        b0 = lift.degree_block(0, deg)
        b1 = lift.degree_block(1, deg)
        assert linalg.mat_mul(b0, b0) == b1


def test_lift_blocks_commute(cartan_action):
    lift = free_nilpotent_lift(cartan_action, 2)
    for deg in range(1, 3):
        b0 = lift.degree_block(0, deg)
        b1 = lift.degree_block(1, deg)
        assert linalg.mat_mul(b0, b1) == linalg.mat_mul(b1, b0)


@pytest.mark.parametrize("base, step", [("fibonacci_action", 3), ("cartan_action", 2)])
def test_lift_passes_graded_validation(request, base, step):
    # the lift is built without validate_graded: rebuilding it from its own
    # grading, sparse brackets and generators must pass the Jacobi and
    # automorphism checks and give back the same object
    lift = free_nilpotent_lift(request.getfixturevalue(base), step)
    again = validate_graded(lift.grading, lift.brackets, lift.action.generators, name=lift.name)
    assert again == lift


def numeric_anosov_oracle(lift, b, digits=50) -> bool:
    """Check no eigenvalue of the lifted product has |.| within 10^-10 of 1,
    using high-precision floating point on each graded block."""
    with mpmath.workdps(digits):
        for deg in range(1, lift.step + 1):
            blocks = [
                linalg.mat_pow(lift.degree_block(g, deg), bi)
                if bi
                else linalg.identity(lift.grading[deg - 1])
                for g, bi in enumerate(b)
            ]
            prod = blocks[0]
            for blk in blocks[1:]:
                prod = linalg.mat_mul(prod, blk)
            m = mpmath.matrix([[mpmath.mpf(int(x)) for x in row] for row in prod])
            eigs, _ = mpmath.eig(m)
            for ev in eigs:
                if abs(abs(ev) - 1) < mpmath.mpf(10) ** (-10):
                    return False
    return True


def test_cat_lift_not_anosov_at_step2(fibonacci_action):
    # degree-2 block of a 2x2 lift is det = +-1, killing hyperbolicity
    lift = free_nilpotent_lift(fibonacci_action, 2)
    assert not is_anosov_matrix(product_matrix(lift.action, (1,)))
    assert not numeric_anosov_oracle(lift, (1,))


def test_cartan_lift_anosov_matches_oracle(cartan_action):
    lift = free_nilpotent_lift(cartan_action, 2)
    for b in [(1, 0), (0, 1), (1, 1), (2, -1), (-1, 3)]:
        exact = is_anosov_matrix(product_matrix(lift.action, b))
        assert exact == numeric_anosov_oracle(lift, b)


def test_lift_generator_unimodular_and_block_triangular(cartan_action):
    lift = free_nilpotent_lift(cartan_action, 2)
    m = lift.action.generators[0]
    assert linalg.det(linalg.to_mat(m)) in (1, -1)
    d1 = cartan_action.dim
    # degree-1 rows have no degree-2 coupling: the full matrix is block
    # diagonal for graded automorphisms
    for i in range(d1):
        assert all(m[i][j] == 0 for j in range(d1, len(m)))
