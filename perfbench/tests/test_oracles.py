"""The benchmark's oracles on cases whose answers are known by hand."""

import json
import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))

import inputs  # noqa: E402
import oracle  # noqa: E402

FIXTURES = os.path.join(HERE, "..", "..", "fixtures")

# rank-3 Cartan action on T^4 as first written down, generators row-major
CARTAN_T4 = [
    [0, 0, 0, 1, 1, 0, 0, 5, 0, 1, 0, 1, 0, 0, 1, -5],
    [-1, 0, 0, -1, -1, -1, 0, -5, 0, -1, -1, -1, 0, 0, -1, 4],
    [0, 0, -1, 6, 1, 0, -5, 29, -1, 1, -1, 1, 0, -1, 6, -31],
]


def audit(action):
    funcs, flagged = oracle.functionals(action.tuples())
    assert flagged == 0
    return funcs, oracle.Classes(funcs)


def test_cartan_t3_three_classes_six_chambers():
    funcs, classes = audit(inputs.cartan_t3())
    assert [f.multiplicity for f in funcs] == [1, 1, 1]
    assert len(classes) == 3
    assert classes.is_tns()
    assert oracle.chamber_count(classes, 2) == 6


def test_cartan_t4_fourteen_chambers():
    action = inputs.cartan_t4()
    assert action.document()["generators"] == CARTAN_T4
    _, classes = audit(action)
    assert len(classes) == 4
    assert classes.is_tns()
    assert oracle.chamber_count(classes, 3) == 14


def test_spectrum_minus1_minus2_has_dimension_4():
    exps = [Fraction(-1), Fraction(-2)]
    cmp = oracle.Comparator()
    assert oracle.sr_indices(exps, cmp) == {
        (0, (1, 0)),
        (1, (0, 1)),
        (1, (1, 0)),
        (1, (2, 0)),
    }
    assert oracle.sr_dimension(exps, [1, 1], cmp) == 4
    assert cmp.flagged == 0


def test_sr_dimension_counts_multiplicities():
    # one block chi = -1 of multiplicity 2: only the two linear terms in
    # each of the two coordinates are admissible
    assert oracle.sr_dimension([Fraction(-1)], [2], oracle.Comparator()) == 4


def test_not_tns_cases():
    for action in (inputs.dependent_pair(), inputs.symplectic_pair()):
        _, classes = audit(action)
        assert len(classes) == 2
        assert classes.negative_pairs() == [(0, 1)]
        assert oracle.chamber_count(classes, 2) == 2


def test_fixture_copies_match_repository_fixtures():
    names = {
        "cartan-t3": "cartan_t3.json",
        "fibonacci": "fibonacci.json",
        "example-8-2": "example82.json",
        "symplectic-pair": "symplectic_pair.json",
    }
    for action in inputs.fixture_actions():
        with open(os.path.join(FIXTURES, names[action.name])) as fh:
            assert json.load(fh)["generators"] == action.document()["generators"]


def test_joint_tuples_are_eigenvalues_of_the_generators():
    for action in inputs.fixture_actions() + [inputs.cartan_t4()]:
        for g, gen in enumerate(action.gens):
            cp = oracle.charpoly(gen)
            for t in action.tuples():
                assert abs(oracle.poly_value(cp, t[g])) < 1e-40


def test_zaslavsky_matches_2n_in_rank_2():
    rng = random.Random(7)
    for _ in range(20):
        n, lines = rng.randint(1, 7), set()
        while len(lines) < n:
            x, y = rng.randint(-9, 9), rng.randint(1, 9)
            lines.add((Fraction(x, y),))
        normals = [(oracle.MP.mpf(1), oracle.MP.mpf(s.numerator) / s.denominator) for (s,) in lines]
        assert oracle.zaslavsky_count(normals) == 2 * len(normals)


def test_zaslavsky_rank_3():
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    assert oracle.zaslavsky_count(e) == 8
    assert oracle.zaslavsky_count(e + [(1, 1, 1)]) == 14
    # three planes through a common line cut space into six wedges
    assert oracle.zaslavsky_count([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 6


def test_irreducibility():
    assert oracle.is_irreducible(inputs.CARTAN_P)
    assert oracle.is_irreducible(inputs.CARTAN_T4_P)
    # (x^2 - 3x + 1)(x^2 + x - 1)
    assert not oracle.is_irreducible([-1, 4, -3, -2, 1])
    assert not oracle.is_irreducible([-1, 0, 0, 0, 1])


def test_companion_and_charpoly_agree():
    for p in (inputs.CARTAN_P, inputs.CARTAN_T4_P, [1, 2, -1, 0, 3, 1]):
        assert oracle.charpoly(oracle.companion(p)) == p


def test_lift_tuples_add_pair_products():
    base = inputs.cartan_t3().tuples()
    lifted = oracle.lift2_tuples(base)
    assert len(lifted) == 3 + 3
    funcs, _ = oracle.functionals(lifted)
    classes = oracle.Classes(funcs)
    # chi_i + chi_j = -chi_k because the three log-moduli sum to zero
    assert not classes.is_tns()


def test_borderline_values_are_flagged():
    assert oracle.sign(oracle.MP.mpf(10) ** -40) is None
    cmp = oracle.Comparator()
    assert cmp.sign(oracle.MP.mpf(10) ** -40) == 0
    assert cmp.flagged == 1
    assert cmp.sign(oracle.MP.mpf(0)) == 0
    assert cmp.flagged == 1


def test_seeded_inputs_repeat():
    a = [x.gens for x in inputs.spectral_actions(random.Random(3), {4: 1, 6: 1})]
    b = [x.gens for x in inputs.spectral_actions(random.Random(3), {4: 1, 6: 1})]
    assert a == b
    assert all(oracle.is_irreducible(oracle.charpoly(g[0])) for g in a)
