import collections
import itertools
import math
import signal
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    cartan_generators,
    cartan_t4_generators,
    fixture_path,
    rational_functional,
    square_double,
    symplectic_double,
)

from anosov_forge import weyl
from anosov_forge.actions import (
    is_anosov_matrix,
    joint_primary_components,
    product_matrix,
    validate,
)
from anosov_forge.cli import load_action_file_with_options
from anosov_forge.config import DEFAULT_CAP, INITIAL_BITS, REPORT_BITS
from anosov_forge.errors import NotAnosovAction, NotTNS, SingularElement
from anosov_forge.freenil import free_nilpotent_lift
from anosov_forge.intpoly import IntPolynomial, isolate_real_roots
from anosov_forge.logval import LogLinearValue
from anosov_forge.linalg import int_mat_mul
from anosov_forge.lp import maximize
from anosov_forge.realalg import RealAlgebraic
from anosov_forge.report import audit_action
from anosov_forge.weyl import (
    _component_functionals,
    _proportionality,
    anosov_in_every_chamber,
    coarse_classes,
    complementary_splitting,
    fast_stable_element,
    is_tns,
    lyapunov_data,
    stable_set,
    weyl_chambers,
)

CAP = DEFAULT_CAP
PHI = (1 + math.sqrt(5)) / 2


def rational_classes(vectors):
    fs = [rational_functional(v) for v in vectors]
    return coarse_classes(fs, CAP)


# -- lyapunov data -------------------------------------------------------------


def test_fibonacci_functionals(fibonacci_action):
    fs = lyapunov_data(fibonacci_action)
    vals = sorted(float(f.values[0].midpoint(96)) for f in fs)
    assert len(fs) == 2
    assert abs(vals[0] + math.log(PHI)) < 1e-12
    assert abs(vals[1] - math.log(PHI)) < 1e-12
    assert all(f.multiplicity == 1 for f in fs)


def test_identity_gives_zero_functional():
    fs = lyapunov_data(validate([[[1, 0], [0, 1]]]))
    assert len(fs) == 1
    assert fs[0].multiplicity == 2
    assert fs[0].is_zero_functional()


def test_functional_of_power_pair():
    # (A, A^2): functionals are (m+2n)-multiples of a single log
    a = [[2, 1], [1, 1]]
    a2 = [[5, 3], [3, 2]]
    fs = lyapunov_data(validate([a, a2]))
    assert len(fs) == 2
    for f in fs:
        x, y = (float(v.midpoint(96)) for v in f.values)
        assert abs(y - 2 * x) < 1e-12


def test_cartan_lyapunov_data(cartan_action):
    fs = lyapunov_data(cartan_action)
    assert len(fs) == 3
    assert sum(f.multiplicity for f in fs) == 3
    # functionals sum to zero exactly: both generators are unimodular
    for coord in range(2):
        total = fs[0].values[coord].scale(fs[0].multiplicity)
        for f in fs[1:]:
            total = total + f.values[coord].scale(f.multiplicity)
        assert total.is_exactly_zero()


def test_functionals_that_need_a_combined_cyclic_generator():
    # On T^4, (A + A, A + A^-1) with A = [[2, 1], [1, 1]]: both generators
    # have charpoly (x^2 - 3x + 1)^2, so neither generates the algebra and
    # the cyclic generator is a combination (g1 + 2 g2; g1 + g2 has the
    # double eigenvalue 3).  L = log phi^2, the larger eigenvalue of A.
    a = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]
    b = [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, -1], [0, 0, -1, 2]]
    fs = lyapunov_data(validate([a, b]))
    phi_sq = RealAlgebraic.from_enclosure(
        IntPolynomial((1, -3, 1)), lambda bits: (Fraction(2), Fraction(3))
    )
    big_l = LogLinearValue.half_log(phi_sq).scale(2)
    signs = []
    for f in fs:
        assert f.multiplicity == 1
        pair = tuple(1 if v.sign() > 0 else -1 for v in f.values)
        for s, v in zip(pair, f.values):
            assert (v - big_l.scale(s)).sign() == 0
        signs.append(pair)
    assert sorted(signs) == [(-1, -1), (-1, 1), (1, -1), (1, 1)]


def _companion(coeffs):
    """Companion matrix of the monic polynomial, lowest coefficient first."""
    d = len(coeffs) - 1
    return [[int(i == j + 1) for j in range(d - 1)] + [-coeffs[i]] for i in range(d)]


@given(
    st.one_of(
        st.just([-1, -1, 0, 1]),  # x^3 - x - 1: one real root, one pair
        st.builds(
            lambda c0, middle: [c0, *middle, 1],
            st.sampled_from((1, -1)),
            st.lists(st.integers(-3, 3), min_size=2, max_size=5),
        ),
    )
)
@settings(max_examples=30, deadline=None)
def test_one_record_per_place(coeffs):
    # companion matrix of a unit polynomial with real and complex roots:
    # each component with label (f, m) gives one record of multiplicity m
    # per real root of f and one of multiplicity 2m per conjugate pair
    real = len(isolate_real_roots(IntPolynomial(coeffs)))
    assume(0 < real < len(coeffs) - 1)
    action = validate([_companion(coeffs)])
    total = 0
    for comp in joint_primary_components(action):
        (f, m), = comp.labels
        r1 = len(isolate_real_roots(f))
        r2 = (f.degree - r1) // 2
        mults = sorted(mult for _, mult in _component_functionals(comp))
        assert mults == [m] * r1 + [2 * m] * r2
        total += sum(mults)
    assert total == action.dim


def test_multiplicity_sums_to_dimension(fibonacci_action, cartan_action):
    for action in (fibonacci_action, cartan_action):
        fs = lyapunov_data(action)
        assert sum(f.multiplicity for f in fs) == action.dim


# -- coarse classes and TNS ----------------------------------------------------


def test_coarse_classes_merge_positive_rays():
    classes = rational_classes([(2, 0), (1, 0), (0, 1), (-3, 0)])
    assert len(classes) == 3
    sizes = sorted(len(c.members) for c in classes)
    assert sizes == [1, 1, 2]


def test_zero_functional_raises():
    with pytest.raises(NotAnosovAction):
        rational_classes([(0, 0), (1, 0)])


def test_tns_detects_negative_proportionality():
    classes = rational_classes([(1, 2), (-2, -4)])
    tns, info = is_tns(classes)
    assert not tns
    assert info["negative_pair"] == (0, 1)


def test_tns_true_with_witnesses(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    assert is_tns(classes) == (True, {})
    tns = audit_action(cartan_action, CAP)["hypotheses"]["tns"]
    pairs = tns["joint_contraction_witnesses"]
    assert sorted(pairs) == ["0,1", "0,2", "1,2"]
    for key, w in pairs.items():
        for c in map(int, key.split(",")):
            assert classes[c].value_at(w).sign(4096) < 0


def _block_power_double(gens, lower, e):
    # diag(g, h^e) for each pair of generators g, h
    m = len(gens[0])
    out = []
    for g, h in zip(gens, lower):
        p = [[int(i == j) for j in range(m)] for i in range(m)]
        for _ in range(e):
            p = [[sum(p[i][r] * h[r][j] for r in range(m)) for j in range(m)] for i in range(m)]
        out.append([g[i] + [0] * m for i in range(m)] + [[0] * m + p[i] for i in range(m)])
    return out


@pytest.mark.parametrize("sign", [1, -1])
def test_ratio_with_numerator_above_twelve_certifies(sign):
    # diag(g, h^13) with h = g gives functionals f and 13 f, and h = g^-T
    # gives f and -13 f: the candidate ratio has no bound on its numerator
    gens = [list(map(list, g)) for g in cartan_generators()]
    lower = gens if sign > 0 else [[row[3:] for row in d[3:]] for d in symplectic_double(gens)]
    action = validate(_block_power_double(gens, lower, 13))
    classes = coarse_classes(lyapunov_data(action), CAP)
    if sign > 0:
        assert [len(c.members) for c in classes] == [2, 2, 2]
        assert is_tns(classes) == (True, {})
    else:
        assert len(classes) == 6
        assert is_tns(classes) == (False, {"negative_pair": (0, 3), "ratio": Fraction(1, 13)})


_PLANT_SCALES = (1, 2, Fraction(1, 2), 13, Fraction(1, 13))


@st.composite
def planted_functionals(draw):
    """Rational rows: multiples +-c v of a few base vectors v, for c in
    _PLANT_SCALES, and independent rows, in shuffled order."""
    k = draw(st.integers(2, 3))
    vec = st.lists(st.integers(-5, 5), min_size=k, max_size=k).filter(any)
    rows = draw(st.lists(vec, max_size=3))
    for v in draw(st.lists(vec, min_size=1, max_size=3)):
        plants = st.tuples(st.sampled_from((1, -1)), st.sampled_from(_PLANT_SCALES))
        rows += [[s * c * x for x in v] for s, c in draw(st.lists(plants, min_size=1, max_size=4))]
    return [rational_functional(r) for r in draw(st.permutations(rows))]


@given(planted_functionals())
@settings(max_examples=60, deadline=None)
def test_tns_matches_pairwise_proportionality_of_class_normals(fs):
    # is_tns reads the relations that coarse_classes certified: each class's
    # opposite, the first negative pair and its ratio are those of
    # _proportionality run on every pair of class normals, and the normals
    # come in functional order
    classes = coarse_classes(fs, CAP)
    opposite = [None] * len(classes)
    expected = (True, {})
    for i, j in itertools.combinations(range(len(classes)), 2):
        a, b = classes[i].hyperplane_normal, classes[j].hyperplane_normal
        rel, ratio = _proportionality(a, b, CAP)
        if rel == "neg":
            inverse = None if ratio is None else 1 / ratio
            opposite[i], opposite[j] = (j, ratio), (i, inverse)
            if expected[0]:
                expected = (False, {"negative_pair": (i, j), "ratio": ratio})
    assert [c.opposite for c in classes] == opposite
    assert is_tns(classes) == expected
    position = {id(f): t for t, f in enumerate(fs)}
    firsts = [min(position[id(f)] for f in c.members) for c in classes]
    assert firsts == sorted(firsts)
    assert [position[id(c.hyperplane_normal)] for c in classes] == firsts


def test_symplectic_pair_not_tns():
    a = [[2, 1], [1, 1]]
    at_inv = [[1, -1], [-1, 2]]

    def bd(p, q):
        return [
            [p[0][0], p[0][1], 0, 0],
            [p[1][0], p[1][1], 0, 0],
            [0, 0, q[0][0], q[0][1]],
            [0, 0, q[1][0], q[1][1]],
        ]

    def sq(m):
        return [
            [sum(m[i][k] * m[k][j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]

    g1 = bd(a, at_inv)
    action = validate([g1, sq(g1)])
    classes = coarse_classes(lyapunov_data(action), CAP)
    assert not is_tns(classes)[0]


# -- chambers ------------------------------------------------------------------


def test_rank1_two_chambers(fibonacci_action):
    classes = coarse_classes(lyapunov_data(fibonacci_action), CAP)
    chambers = weyl_chambers(classes, CAP)
    assert len(chambers) == 2
    assert sorted(ch.witness for ch in chambers) == [(-1,), (1,)]


def test_cartan_six_chambers(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    chambers = weyl_chambers(classes, CAP)
    assert len(chambers) == 6
    signs = {ch.signs for ch in chambers}
    assert len(signs) == 6
    # opposite chambers both present
    for s in signs:
        assert tuple(-x for x in s) in signs
    assert anosov_in_every_chamber(chambers)


@pytest.mark.parametrize(
    "source",
    ["cartan_t3.json", "fibonacci.json", "example82.json", "symplectic_pair.json", "lift2"],
)
def test_audit_witnesses_are_anosov_matrices(source):
    # independent of the signs the audit read its verdicts from: the product
    # matrix at every chamber and TNS witness has no eigenvalue of modulus 1
    if source == "lift2":
        base = validate(list(cartan_generators()))
        action = free_nilpotent_lift(base, 2).action
    else:
        action = load_action_file_with_options(fixture_path(source))[0]
    report = audit_action(action, CAP)
    classes = coarse_classes(lyapunov_data(action), CAP)
    chambers = report["arrangement"]["chambers"]
    pairs = report["hypotheses"]["tns"].get("joint_contraction_witnesses", {})
    assert chambers
    for w in [ch["witness"] for ch in chambers] + list(pairs.values()):
        assert is_anosov_matrix(product_matrix(action, w)), w
    for key, w in pairs.items():
        for c in map(int, key.split(",")):
            assert classes[c].value_at(w).sign(CAP) < 0


def test_synthetic_three_lines_six_chambers():
    # lines at 0, 60, 120 degrees (normals at 90, 150, 30)
    classes = rational_classes([(0, 1), (-3, 2), (3, 2)])
    chambers = weyl_chambers(classes, CAP)
    assert len(chambers) == 6
    for ch in chambers:
        for cls, s in zip(classes, ch.signs):
            assert cls.value_at(ch.witness).sign(4096) == s


def test_chamber_witness_signs_certified(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    for ch in weyl_chambers(classes, CAP):
        for cls, s in zip(classes, ch.signs):
            assert cls.value_at(ch.witness).sign(4096) == s


def test_high_rank_orthant_chambers():
    # three coordinate hyperplanes in rank 3: all 8 orthants are chambers
    classes = rational_classes([(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    chambers = weyl_chambers(classes, CAP)
    assert len(chambers) == 8
    assert {ch.signs for ch in chambers} == {
        (a, b, c) for a in (1, -1) for b in (1, -1) for c in (1, -1)
    }


@given(st.integers(1, 6), st.integers(0, 10**6))
@settings(max_examples=25, deadline=None)
def test_generic_rank2_lines_give_2n_chambers(n_lines, seed):
    import random

    rng = random.Random(seed)
    angles = set()
    while len(angles) < n_lines:
        # random rational directions, no two parallel
        x, y = rng.randint(-20, 20), rng.randint(1, 20)
        g = math.gcd(x, y)
        angles.add((x // g, y // g))
    classes = rational_classes(sorted(angles))
    chambers = weyl_chambers(classes, CAP)
    assert len(chambers) == 2 * len(angles)
    assert len({ch.signs for ch in chambers}) == 2 * len(angles)


def _cell_nonempty(rows, signs) -> bool:
    """Reference: is there x with signs[i] * (rows[i] . x) > 0 for every i?
    Exact LP: max t s.t. t <= signs[i] * rows[i] . x, |x_j| <= 1, t <= 1."""
    k = len(rows[0])
    cons, rhs = [], []
    for row, s in zip(rows, signs):
        cons.append([-s * v for v in row] + [1])
        rhs.append(0)
    for j in range(k):
        for unit in (1, -1):
            cons.append([unit if i == j else 0 for i in range(k)] + [0])
            rhs.append(1)
    cons.append([0] * k + [1])
    rhs.append(1)
    res = maximize([0] * k + [1], cons, rhs)
    return res is not None and res[0] > 0


@st.composite
def planted_arrangements(draw):
    """Rational normals in ranks 1-4 with planted degeneracies: negatively
    proportional pairs, a normal in the plane of two others, normals that
    span less than R^k, and zero coordinates."""
    k = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-3, 3), min_size=k, max_size=k)
    vecs = draw(st.lists(vec, min_size=1, max_size=4))
    if draw(st.booleans()):
        vecs.append([-draw(st.integers(1, 3)) * v for v in vecs[0]])
    if len(vecs) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
        vecs.append([a * x + b * y for x, y in zip(vecs[0], vecs[1])])
    if k >= 2 and draw(st.booleans()):
        vecs = [v[:-1] + [0] for v in vecs]
    vecs = [v for v in vecs if any(v)]
    assume(vecs)
    return k, vecs


@given(planted_arrangements())
@settings(max_examples=60, deadline=None)
def test_chambers_match_lp_reference(arrangement):
    k, vecs = arrangement
    classes = rational_classes(vecs)
    rows = [[v.const for v in c.hyperplane_normal.values] for c in classes]
    expected = {
        signs
        for signs in itertools.product((1, -1), repeat=len(rows))
        if _cell_nonempty(rows, signs)
    }
    chambers = weyl_chambers(classes, CAP)
    assert [ch.signs for ch in chambers] == sorted(expected, reverse=True)
    for ch in chambers:
        for cls, s in zip(classes, ch.signs):
            assert cls.value_at(ch.witness).sign(CAP) == s


def test_cartan_t4_chambers_at_default_cap():
    # the four normals sum to zero: the all-plus and all-minus cells are
    # empty, which the positive circuit certifies at 64 bits
    action = validate(list(cartan_t4_generators()), name="cartan-t4")
    t0 = time.perf_counter()
    classes = coarse_classes(lyapunov_data(action), CAP)
    chambers = weyl_chambers(classes, CAP)
    assert time.perf_counter() - t0 < 30.0
    assert len(chambers) == 14
    assert len({ch.signs for ch in chambers}) == 14
    assert (1,) * 4 not in {ch.signs for ch in chambers}
    for ch in chambers:
        for cls, s in zip(classes, ch.signs):
            assert cls.value_at(ch.witness).sign(CAP) == s


def test_symplectic_double_chambers_match_cartan_t4():
    # diag(g, g^-T) has the hyperplanes of cartan_t4, each twice with
    # opposite normals: minors holding such a pair are exactly zero with
    # irrational entries, and the chambers are those of cartan_t4
    quad = coarse_classes(
        lyapunov_data(validate(list(cartan_t4_generators()), name="t4")), CAP
    )
    double = validate(symplectic_double(cartan_t4_generators()), name="t4-double")
    classes = coarse_classes(lyapunov_data(double), CAP)
    assert len(classes) == 8
    assert not is_tns(classes)[0]
    cap = CAP
    expected = {
        tuple(c.value_at(ch.witness).sign(cap) for c in classes)
        for ch in weyl_chambers(quad, CAP)
    }
    chambers = weyl_chambers(classes, CAP)
    assert {ch.signs for ch in chambers} == expected
    assert len(chambers) == 14
    for ch in chambers:
        for cls, s in zip(classes, ch.signs):
            assert cls.value_at(ch.witness).sign(cap) == s


# -- stable sets and splittings -------------------------------------------------


def test_stable_set_complement(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    for ch in weyl_chambers(classes, CAP):
        b = ch.witness
        neg = {c.index for c in stable_set(classes, b, CAP)}
        nb = tuple(-x for x in b)
        pos = {c.index for c in stable_set(classes, nb, CAP)}
        assert neg | pos == {0, 1, 2}
        assert neg & pos == set()


def test_stable_set_singular():
    classes = rational_classes([(1, 0), (0, 1)])
    with pytest.raises(SingularElement):
        stable_set(classes, (0, 5), CAP)


def test_splitting_identities(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    for target in classes:
        sp = complementary_splitting(classes, target, CAP)
        others = {c.index for c in classes if c.index != target.index}
        assert set(sp.e1_classes) | set(sp.e2_classes) == others
        assert set(sp.e1_classes) & set(sp.e2_classes) == set()
        assert sp.m == 1 + len(sp.e2_classes)

        def stable(b):
            return {c.index for c in stable_set(classes, b, CAP)}

        assert stable(sp.c2) == set(sp.e2_classes)
        assert stable(sp.a2) == set(sp.e2_classes) | {target.index}
        assert stable(sp.c1) == set(sp.e1_classes)
        assert stable(sp.a1) == set(sp.e1_classes) | {target.index}


# The seeded degree-6, 7 and 8 pairs (A, A - I) of the benchmark's seeds 1-4,
# lowest coefficient first.  Their moduli have degree up to 28; an exact zero
# test before the interval test multiplies algebraic powers for minutes on
# seed 1's degree-6 pair.
SEEDED_PAIRS = {
    "seed1-d6": (1, -2, -1, 2, -3, 3, 1),
    "seed1-d7": (-1, 1, -2, -1, 3, -1, 1, 1),
    "seed1-d8": (1, -3, 2, 1, 2, -1, -2, 0, 1),
    "seed2-d6": (1, 2, -3, -1, 0, 1, 1),
    "seed2-d7": (1, 2, -2, 3, -3, -3, 0, 1),
    "seed2-d8": (-1, 2, 1, 1, 0, -2, -3, 0, 1),
    "seed3-d6": (-1, 0, -3, 3, 2, -3, 1),
    "seed3-d7": (1, -3, -2, 1, -3, 2, 2, 1),
    "seed3-d8": (1, 2, 3, -3, 1, 0, -3, -1, 1),
    "seed4-d6": (1, -1, 0, 0, -3, 3, 1),
    "seed4-d7": (-1, 2, -1, 3, 0, 0, -3, 1),
    "seed4-d8": (1, 3, -1, -1, 1, -3, 2, -2, 1),
}


def _seeded_pair(p):
    d = len(p) - 1
    a = [[int(i == j + 1) for j in range(d - 1)] + [-p[i]] for i in range(d)]
    b = [[a[i][j] - (i == j) for j in range(d)] for i in range(d)]
    return validate([a, b])


@pytest.mark.parametrize("name", list(SEEDED_PAIRS))
def test_splitting_on_the_seeded_pairs_within_seconds(name):
    def expire(signum, frame):
        raise TimeoutError(f"splitting {name} took over 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        classes = coarse_classes(lyapunov_data(_seeded_pair(SEEDED_PAIRS[name])), CAP)
        for target in classes:
            sp = complementary_splitting(classes, target, CAP)
            others = {c.index for c in classes if c.index != target.index}
            e1, e2 = set(sp.e1_classes), set(sp.e2_classes)
            assert e1 | e2 == others

            def stable(b):
                return {c.index for c in stable_set(classes, b, CAP)}

            assert stable(sp.a1) == e1 | {target.index}
            assert stable(sp.c1) == e1
            assert stable(sp.a2) == e2 | {target.index}
            assert stable(sp.c2) == e2
            for side, members in ((1, e1), (2, e2)):
                b, cert = fast_stable_element(sp, side, classes, CAP)
                assert cert["margin"] > 0
                tval = target.value_at(b)
                assert tval.sign(4096) < 0
                for idx in members:
                    # chi_j(b) < chi_target(b) < 0
                    assert (classes[idx].value_at(b) - tval).sign(4096) < 0
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_exact_zero_tests_reach_only_values_that_intervals_leave_open(
    monkeypatch, cartan_action
):
    # an enclosure that excludes 0 already proves a value nonzero, so the
    # exact test (a product of algebraic powers) must never run on one
    exact = LogLinearValue.is_exactly_zero
    calls, separated = [], []

    def spy(self):
        lo, hi = self.interval(INITIAL_BITS)
        calls.append(self)
        if lo > 0 or hi < 0:
            separated.append(self)
        return exact(self)

    monkeypatch.setattr(LogLinearValue, "is_exactly_zero", spy)
    a = cartan_generators()[0]
    a2 = [[sum(a[i][k] * a[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    dependent = validate([a, a2])
    symplectic, _ = load_action_file_with_options(fixture_path("symplectic_pair.json"))
    for action in (cartan_action, dependent, symplectic, _seeded_pair(SEEDED_PAIRS["seed1-d6"])):
        audit_action(action, CAP)
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    complementary_splitting(classes, classes[0], CAP)
    assert calls
    assert separated == []


def _identifications(monkeypatch) -> list:
    """The candidates of every RealAlgebraic.from_enclosure call from now on."""
    calls = []
    identify = RealAlgebraic.from_enclosure.__func__

    def spy(cls, candidates, enclosure):
        calls.append(candidates)
        return identify(cls, candidates, enclosure)

    monkeypatch.setattr(RealAlgebraic, "from_enclosure", classmethod(spy))
    return calls


# the benchmark generator's first degree-5 draw of seed 0, lowest first
SEEDED_D5 = (1, 3, 0, -3, -1, 1)


@pytest.mark.parametrize("name", ["seed0-d5", "seed1-d8", "cartan_t3"])
def test_generic_audit_identifies_no_modulus(monkeypatch, cartan_action, name):
    # distinct moduli are told apart by their disk enclosures, and every
    # sign of a generic audit is settled by intervals: no modulus becomes
    # a RealAlgebraic
    p = {"seed0-d5": SEEDED_D5, "seed1-d8": SEEDED_PAIRS["seed1-d8"]}.get(name)
    action = cartan_action if p is None else _seeded_pair(p)
    calls = _identifications(monkeypatch)
    weyl_chambers(coarse_classes(lyapunov_data(action), CAP))
    assert calls == []


@pytest.mark.parametrize("name", ["seed0-d5", "seed1-d8"])
def test_root_disks_asked_once_per_place_and_bits(monkeypatch, name):
    # the moduli of a place share one disk match per precision: a rank-2
    # audit asks for the disks of p once per place and bits, and once more
    # for the base disks
    p = {"seed0-d5": SEEDED_D5, "seed1-d8": SEEDED_PAIRS["seed1-d8"]}[name]
    calls = collections.Counter()
    disks = weyl.certified_root_disks

    def spy(coeffs, bits):
        calls[coeffs, bits] += 1
        return disks(coeffs, bits)

    monkeypatch.setattr(weyl, "certified_root_disks", spy)
    audit_action(_seeded_pair(p), CAP)
    places = len(_places(p))
    assert calls == {(p, INITIAL_BITS): places + 1, (p, REPORT_BITS): places}


def test_symplectic_pair_identifies_its_moduli(monkeypatch):
    # negative proportionality is certified by exact zero tests, which
    # identify the moduli they multiply
    symplectic, _ = load_action_file_with_options(fixture_path("symplectic_pair.json"))
    calls = _identifications(monkeypatch)
    weyl_chambers(coarse_classes(lyapunov_data(symplectic), CAP))
    assert calls
    assert audit_action(symplectic, CAP)["hypotheses"]["tns"]["kind"] == "false"


# unit polynomials p with p(1) = +-1, lowest coefficient first, so that
# (A, A - I) is unimodular for A the companion matrix of p: the places of
# p have pairwise distinct modulus vectors (|r|, |r - 1|)
_UNIT_PAIR_POLYS = (
    (1, -3, 1),  # x^2 - 3x + 1
    (-1, -1, 0, 1),  # x^3 - x - 1: one real root and one conjugate pair
    (1, -3, 0, 1),  # x^3 - 3x + 1
    (1, 1, -3, -1, 1),  # x^4 - x^3 - 3x^2 + x + 1
    SEEDED_D5,
)


def _block_sum(gs, hs):
    n, m = len(gs[0]), len(hs[0])
    return validate(
        [
            [[*row, *[0] * m] for row in g] + [[*[0] * n, *row] for row in h]
            for g, h in zip(gs, hs)
        ]
    )


def _places(p) -> list[int]:
    """Multiplicities of the places of p: 1 per real root, 2 per pair."""
    real = len(isolate_real_roots(IntPolynomial(p)))
    return [1] * real + [2] * ((len(p) - 1 - real) // 2)


def _reference_groups(action):
    """The functionals grouped by identified modulus vectors, in order of
    first appearance: (moduli, multiplicity, first origin)."""
    merged = {}
    for origin, comp in enumerate(joint_primary_components(action)):
        for msqs, mult in _component_functionals(comp):
            key = tuple(m.algebraic for m in msqs)
            total, first = merged.get(key, (0, origin))
            merged[key] = (total + mult, first)
    return [(key, mult, origin) for key, (mult, origin) in merged.items()]


@given(
    st.sampled_from(range(len(_UNIT_PAIR_POLYS))),
    st.sampled_from(["conjugate", "negated", "other"]),
    st.lists(st.tuples(st.integers(0, 4), st.integers(1, 4), st.integers(-2, 2)), max_size=6),
    st.integers(1, len(_UNIT_PAIR_POLYS) - 1),
)
@settings(max_examples=40, deadline=None)
def test_grouping_across_components(k, kind, ops, shift):
    # diag(M_j, P M_j P^-1) and diag(M_j, -P M_j P^-1) for the pair
    # M = (A, A - I) and a unimodular P: the second block repeats the
    # modulus vectors of the first, in one joint component or in a second
    # one (of p(-x)), so every functional has twice the multiplicity of its
    # place.  A block of another polynomial shares no modulus vector.
    p = _UNIT_PAIR_POLYS[k]
    a = _seeded_pair(p).generators
    d = len(p) - 1
    if kind == "other":
        q = _UNIT_PAIR_POLYS[(k + shift) % len(_UNIT_PAIR_POLYS)]
        action = _block_sum(a, _seeded_pair(q).generators)
        expected = sorted(_places(p) + _places(q))
    else:
        # P and P^-1 from row operations r_i += c r_j and their inverses
        pm = [[int(i == j) for j in range(d)] for i in range(d)]
        pinv = [row[:] for row in pm]
        for i, j, c in ops:
            i, j = i % d, (i + j) % d
            if i == j:
                continue
            pm[i] = [x + c * y for x, y in zip(pm[i], pm[j])]
            for row in pinv:
                row[j] -= c * row[i]
        sign = -1 if kind == "negated" else 1
        conj = [
            [[sign * x for x in row] for row in int_mat_mul(int_mat_mul(pm, g), pinv)] for g in a
        ]
        action = _block_sum(a, conj)
        expected = sorted(2 * m for m in _places(p))
    fs = lyapunov_data(action)
    assert sorted(f.multiplicity for f in fs) == expected
    assert sum(f.multiplicity for f in fs) == action.dim
    reference = _reference_groups(action)
    assert [(f.multiplicity, f.origin) for f in fs] == [(m, o) for _, m, o in reference]
    for f, (key, _, _) in zip(fs, reference):
        assert tuple(m.algebraic for v in f.values for _, m in v.terms) == key


def test_splitting_requires_tns():
    classes = rational_classes([(1, 2), (-2, -4)])
    with pytest.raises(NotTNS):
        complementary_splitting(classes, classes[0], CAP)


def test_fast_stable_element(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    target = classes[0]
    sp = complementary_splitting(classes, target, CAP)
    for side in (1, 2):
        b, cert = fast_stable_element(sp, side, classes, CAP)
        assert cert["margin"] > 0
        side_members = sp.e1_classes if side == 1 else sp.e2_classes
        tval = target.value_at(b)
        assert tval.sign(4096) < 0
        for idx in side_members:
            diff = classes[idx].value_at(b) + tval.scale(-1)
            # chi_j(b) < chi_target(b) < 0 for every j on the chosen side
            assert diff.sign(4096) < 0


def test_fast_stable_element_certifies_an_empty_side(cartan_action):
    # with two classes one side of each splitting is empty: its element is
    # a1 (a2), whose margin the same doubling loop certifies
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)[:2]
    for target in classes:
        sp = complementary_splitting(classes, target, CAP)
        assert sorted([len(sp.e1_classes), len(sp.e2_classes)]) == [0, 1]
        for side, members in ((1, sp.e1_classes), (2, sp.e2_classes)):
            b, cert = fast_stable_element(sp, side, classes, CAP)
            assert cert.keys() == {"margin", "bits"}
            assert cert["margin"] > 0 and cert["bits"] == INITIAL_BITS
            if not members:
                assert b == (sp.a1 if side == 1 else sp.a2)
            tval = target.value_at(b)
            assert tval.sign(4096) < 0
            for idx in members:
                assert (classes[idx].value_at(b) - tval).sign(4096) < 0


def test_fast_stable_element_with_two_member_classes():
    # every class of diag(g, g^2) over cartan_t4 holds chi and 2*chi; in
    # rank 3 the rows f - g, f - 2g and g are then linearly dependent with no
    # two of them proportional, so their 3 x 3 minor is 0 yet never certified
    action = validate(square_double(cartan_t4_generators()), name="t4-square")
    classes = coarse_classes(lyapunov_data(action), CAP)
    assert [len(c.members) for c in classes] == [2, 2, 2, 2]
    for target in classes:
        sp = complementary_splitting(classes, target, CAP)
        for side, members in ((1, sp.e1_classes), (2, sp.e2_classes)):
            b, cert = fast_stable_element(sp, side, classes, CAP)
            assert cert["margin"] > 0
            for g in target.members:
                assert g.value_at(b).sign(4096) < 0
                for idx in members:
                    for f in classes[idx].members:
                        # chi_j(b) < chi_target(b) < 0 for every pair of members
                        assert (f.value_at(b) - g.value_at(b)).sign(4096) < 0


def test_splitting_deterministic(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    s1 = complementary_splitting(classes, classes[1], CAP)
    s2 = complementary_splitting(classes, classes[1], CAP)
    assert s1 == s2
