import random
from fractions import Fraction

import pytest

from anosov_forge.actions import invariant_complement
from anosov_forge.errors import InputError, NotUnimodular
from anosov_forge.freenil import free_nilpotent_lift
from anosov_forge.graded import (
    degree_one_action,
    derived_subalgebra,
    is_totally_reducible_graded,
    validate_graded,
)

F = Fraction


def heisenberg(generators):
    """3-dim Heisenberg algebra: [e0, e1] = e2, grading (2, 1)."""
    return validate_graded([2, 1], [(0, 1, 2, F(1))], generators)


def id3():
    return [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def test_heisenberg_validates():
    g = heisenberg([id3()])
    assert g.dim == 3 and g.step == 2 and g.rank == 1


def test_automorphism_condition_enforced():
    # scaling e0 by 1 and e1 by 1 but e2 by -1 breaks [e0,e1]=e2
    bad = [[1, 0, 0], [0, 1, 0], [0, 0, -1]]
    with pytest.raises(InputError):
        heisenberg([bad])


def test_grading_preservation_enforced():
    # mixing degree-1 and degree-2 coordinates is rejected
    bad = [[1, 0, 0], [0, 1, 0], [1, 0, 1]]
    # e2 = [e0,e1] must map to det(deg1 block) * e2; this matrix is an
    # automorphism but not block-diagonal? g(e0)=e0+e2 mixes degrees
    bad2 = [[1, 0, 1], [0, 1, 0], [0, 0, 1]]
    with pytest.raises(InputError):
        heisenberg([bad2])
    del bad


def test_jacobi_enforced(cartan_action):
    # flipping one of these degree-3 constants of the step-3 lift keeps the
    # grading and the step, and breaks only the Jacobi identity
    lift = free_nilpotent_lift(cartan_action, 3)
    for flip in [(0, 5, 9), (0, 5, 11), (1, 4, 9), (2, 3, 11)]:
        sc = [(a, b, c, -v if (a, b, c) == flip else v) for a, b, c, v in lift.brackets]
        assert sc != list(lift.brackets)
        with pytest.raises(InputError, match="Jacobi identity violated"):
            validate_graded(lift.grading, sc, lift.action.generators)


def test_degree_three_automorphism_enforced(fibonacci_action):
    # the step-3 lift with its degree-3 block multiplied by [[1, 1], [0, 1]]
    # is unimodular and grading-preserving, but no longer an automorphism
    lift = free_nilpotent_lift(fibonacci_action, 3)
    assert lift.grading == (2, 1, 2)
    gen = [list(row) for row in lift.action.generators[0]]
    for i in (3, 4):
        gen[i][4] += gen[i][3]
    with pytest.raises(InputError, match="generator 0 is not a Lie algebra automorphism"):
        validate_graded(lift.grading, lift.brackets, [gen])


def test_unimodularity_enforced():
    # diag(2, 1, 2) is an automorphism of heisenberg but not unimodular
    with pytest.raises(NotUnimodular):
        heisenberg([[[2, 0, 0], [0, 1, 0], [0, 0, 2]]])


def test_degree_one_action_extraction():
    cat_lift = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    g = heisenberg([cat_lift])
    q = degree_one_action(g)
    assert q.dim == 2
    assert q.generators[0] == ((2, 1), (1, 1))


def test_derived_subalgebra_heisenberg():
    g = heisenberg([id3()])
    der = derived_subalgebra(g)
    assert der.dimension == 1


def test_abelian_derived_trivial():
    g = validate_graded([2], [], [[[2, 1], [1, 1]]])
    assert derived_subalgebra(g).dimension == 0


def test_totally_reducible_graded_heisenberg():
    cat_lift = [[2, 1, 0], [1, 1, 0], [0, 0, 1]]
    ok, witness = is_totally_reducible_graded(heisenberg([cat_lift]))
    assert ok
    assert witness["degree1_totally_reducible"]
    assert witness["derived_dimension"] == 1
    assert witness["derived_complement"] is not None


def test_totally_reducible_graded_fails_for_jordan_degree1():
    jordan_lift = [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    ok, witness = is_totally_reducible_graded(heisenberg([jordan_lift]))
    assert not ok
    assert not witness["degree1_totally_reducible"]


def planted(b, x, s):
    """(2, 2)-graded [e0, e1] = e2, generator diag(B, [[det B, x], [0, s]])."""
    det_b = b[0][0] * b[1][1] - b[0][1] * b[1][0]
    gen = [
        [b[0][0], b[0][1], 0, 0],
        [b[1][0], b[1][1], 0, 0],
        [0, 0, det_b, x],
        [0, 0, 0, s],
    ]
    return validate_graded([2, 2], [(0, 1, 2, F(1))], [gen])


def test_complement_by_degree_matches_full_space():
    # the derived subalgebra span(e2) has an invariant complement iff the
    # degree-2 block is not a Jordan block; the search one degree at a time
    # must agree with the projection system on the whole space
    rng = random.Random(5)
    moves = ([[1, 1], [0, 1]], [[1, 0], [1, 1]], [[0, 1], [1, 0]], [[1, -1], [0, 1]])
    seen = set()
    for _ in range(120):
        b = [[1, 0], [0, 1]]
        for _ in range(rng.randint(0, 4)):
            m = rng.choice(moves)
            b = [[sum(b[i][t] * m[t][j] for t in range(2)) for j in range(2)] for i in range(2)]
        g = planted(b, rng.randint(-2, 2), rng.choice((1, -1)))
        full = invariant_complement(g.action.generator_mats(), derived_subalgebra(g))
        comp = is_totally_reducible_graded(g)[1]["derived_complement"]
        assert (comp is None) == (full is None)
        if comp is not None:
            assert comp.dimension == full.dimension == 3
        seen.add(full is None)
    assert seen == {True, False}
