import itertools
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path

from anosov_forge.cli import main as cli_main
from anosov_forge.config import DEFAULT_CAP
from anosov_forge.errors import InputError, SingularElement
from anosov_forge.logval import LogLinearValue
from anosov_forge.normalforms import (
    ContractionSpectrum,
    sr_group_dimension,
    subresonance_indices,
)
from anosov_forge.weyl import coarse_classes, lyapunov_data, stable_set, weyl_chambers

CAP = DEFAULT_CAP
F = Fraction


def brute_force_indices(exponents, cap=60):
    """Independent oracle: enumerate admissible (target, degrees) by direct
    search with per-coordinate degree bound cap."""
    out = set()
    n = len(exponents)
    for i, chi in enumerate(exponents):
        bounds = []
        for j, chj in enumerate(exponents):
            bounds.append(range(0, int(chi / chj) + 2))
        for s in itertools.product(*bounds):
            if sum(s) == 0:
                continue
            if sum(sj * chj for sj, chj in zip(s, exponents)) >= chi:
                out.add((i, s))
    return out


def spectrum(exps, mults):
    return ContractionSpectrum.build([F(e) for e in exps], mults, CAP)


def test_build_rejects_nonnegative():
    with pytest.raises(InputError):
        spectrum([-1, 0], [1, 1])
    with pytest.raises(InputError):
        spectrum([1], [1])


def test_build_rejects_nondecreasing():
    with pytest.raises(InputError):
        spectrum([-2, -1], [1, 1])
    with pytest.raises(InputError):
        spectrum([-1, -1], [1, 1])


_fraction_lists = st.lists(
    st.fractions(min_value=-4, max_value=1, max_denominator=6), min_size=1, max_size=6
)


@given(st.one_of(_fraction_lists, _fraction_lists.map(lambda xs: sorted(xs, reverse=True))))
@settings(max_examples=200, deadline=None)
def test_build_matches_negative_and_decreasing_reference(exps):
    # the reference: every exponent < 0 first, then each one > the next;
    # sorted lists reach the second check and the spectra that pass
    mults = [1] * len(exps)
    if not all(e < 0 for e in exps):
        expected = "exponents must be strictly negative"
    elif not all(a > b for a, b in zip(exps, exps[1:])):
        expected = "exponents must be strictly decreasing"
    else:
        assert spectrum(exps, mults).exponents == tuple(
            LogLinearValue.from_rational(e) for e in exps
        )
        return
    with pytest.raises(InputError, match=f"^{expected}$"):
        spectrum(exps, mults)


def test_indices_simple_resonance():
    spec = spectrum([-1, -2], [1, 1])
    got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
    assert got == {(0, (1, 0)), (1, (0, 1)), (1, (1, 0)), (1, (2, 0))}
    assert sr_group_dimension(spec, cap=CAP) == 4


def test_identity_indices_always_present():
    spec = spectrum([-1, F(-3, 2), -4], [1, 2, 1])
    got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
    for i in range(3):
        e = tuple(1 if j == i else 0 for j in range(3))
        assert (i, e) in got


def test_triangularity():
    # (i, e_j) with j != i is admissible exactly when chi_j >= chi_i
    spec = spectrum([-1, -2, -5], [1, 1, 1])
    got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            e = tuple(1 if t == j else 0 for t in range(3))
            assert ((i, e) in got) == (j < i)


def test_no_subresonance_when_gap_too_small():
    # chi = (-1, -3/2): nothing nonlinear fits above -3/2 except e_0 itself
    spec = spectrum([-1, F(-3, 2)], [1, 1])
    got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
    assert got == {(0, (1, 0)), (1, (0, 1)), (1, (1, 0))}
    assert sr_group_dimension(spec, cap=CAP) == 3


def test_dimension_counts_multiplicities():
    # chi = (-1, -2), m = (2, 1): value coords get deg-1 terms (2 slots),
    # deg-2 terms in the 2-dim space (3 monomials), plus chi_1's own slot
    spec = spectrum([-1, -2], [2, 1])
    # targets in chi_0 block: identity only -> 2 * 2 entries (2x2 GL block)
    # target chi_1: s=(0,1) -> 1, s=(1,0) -> 2, s=(2,0) -> 3 monomials
    assert sr_group_dimension(spec, cap=CAP) == 4 + 1 + 2 + 3


def test_matches_brute_force_oracle():
    cases = [
        ([-1, -2], [1, 1]),
        ([-1, -2, -3], [1, 1, 1]),
        ([-1, -2, -4], [2, 1, 3]),
        ([F(-1, 2), -1, F(-5, 2)], [1, 2, 1]),
        ([-1, F(-7, 3), -5], [2, 2, 2]),
    ]
    for exps, mults in cases:
        spec = spectrum(exps, mults)
        got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
        assert got == brute_force_indices([F(e) for e in exps])


@given(
    st.lists(st.integers(1, 6), min_size=1, max_size=3, unique=True),
    st.integers(1, 2),
)
@settings(max_examples=30, deadline=None)
def test_oracle_agreement_random(neg_exps, mult):
    exps = sorted((F(-e) for e in neg_exps), reverse=True)
    spec = ContractionSpectrum.build(exps, [mult] * len(exps), CAP)
    got = {(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)}
    assert got == brute_force_indices(exps)


def test_exact_tie_is_admissible():
    # chi_2 = chi_0 + chi_1 exactly, with common denominator 6
    exps = [F(-1, 3), F(-1, 2), F(-5, 6)]
    spec = spectrum(exps, [1, 1, 1])
    got = [(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)]
    assert (2, (1, 1, 0)) in got
    assert got == sorted(brute_force_indices(exps))


@given(
    st.lists(
        st.fractions(min_value=-4, max_value=F(-1, 2), max_denominator=9),
        min_size=1,
        max_size=4,
        unique=True,
    ),
)
@settings(max_examples=60, deadline=None)
def test_pruned_search_matches_box_scan_in_order(neg_exps):
    # targets in order, degree vectors in lexicographic order; denominators
    # up to 9 make the common denominator of the scaled search up to 2520
    exps = sorted(neg_exps, reverse=True)
    spec = ContractionSpectrum.build(exps, [1] * len(exps), CAP)
    got = [(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)]
    assert got == sorted(brute_force_indices(exps))


def element_spectrum(classes, b):
    """The stable spectrum at b, built as `normal-forms --element` builds it."""
    vals = sorted(
        ((c.value_at(b), c.total_multiplicity) for c in stable_set(classes, b, CAP)),
        key=lambda p: p[0].midpoint(128),
        reverse=True,
    )
    return ContractionSpectrum.build([v for v, _ in vals], [m for _, m in vals], CAP)


def log_linear_box_scan(spec):
    """Ordered oracle over the full degree box: every candidate is decided on
    its own by the certified sign of sum_j s_j chi_j - chi_i."""
    chis = spec.exponents
    out = []
    for i, chi in enumerate(chis):
        bounds = [
            range(math.floor(chi.midpoint(64) / chj.midpoint(64)) + 3) for chj in chis
        ]
        for s in itertools.product(*bounds):
            if not any(s):
                continue
            total = LogLinearValue.from_rational(0)
            for sj, chj in zip(s, chis):
                total = total + chj.scale(sj)
            if (total - chi).sign(CAP) >= 0:
                out.append((i, s))
    return out


def test_log_linear_spectra_match_box_scan(cartan_action):
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    elements = [ch.witness for ch in weyl_chambers(classes, CAP)]
    elements += [b for b in itertools.product(range(-2, 3), repeat=2) if any(b)]
    checked = 0
    for b in elements:
        try:
            spec = element_spectrum(classes, b)
        except SingularElement:
            continue
        got = [(ix.target, ix.degrees) for ix in subresonance_indices(spec, cap=CAP)]
        assert got == log_linear_box_scan(spec), b
        checked += 1
    assert checked >= 6


def test_cli_dimension_matches_library(tmp_path, cartan_action):
    spectra = [([-1, -2], [1, 1]), ([F(-1, 2), -1, F(-5, 2)], [1, 2, 1])]
    for n, (exps, mults) in enumerate(spectra):
        src = tmp_path / f"spectrum{n}.json"
        src.write_text(
            json.dumps(
                {
                    "schema_version": 1,
                    "kind": "spectrum",
                    "exponents": [str(F(e)) for e in exps],
                    "multiplicities": mults,
                }
            )
        )
        out = tmp_path / f"spectrum{n}.out.json"
        assert cli_main(["normal-forms", str(src), "--json", str(out)]) == 0
        expected = sr_group_dimension(spectrum(exps, mults), cap=CAP)
        assert json.loads(out.read_text())["sr_group_dimension"] == expected
    classes = coarse_classes(lyapunov_data(cartan_action), CAP)
    out = tmp_path / "element.out.json"
    argv = ["normal-forms", fixture_path("cartan_t3.json"), "--element=-1,-1"]
    assert cli_main(argv + ["--json", str(out)]) == 0
    expected = sr_group_dimension(element_spectrum(classes, (-1, -1)), cap=CAP)
    assert json.loads(out.read_text())["sr_group_dimension"] == expected
