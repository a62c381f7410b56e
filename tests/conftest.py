import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from anosov_forge import linalg  # noqa: E402
from anosov_forge.actions import validate  # noqa: E402
from anosov_forge.logval import LogLinearValue  # noqa: E402
from anosov_forge.weyl import LyapunovFunctional  # noqa: E402

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "fixtures")


def cartan_generators():
    # companion matrix of x^3 - 3x + 1 (three real roots, units) and a
    # commuting second generator
    a1 = [[0, 0, -1], [1, 0, 3], [0, 1, 0]]
    a2 = [[a1[i][j] - (i == j) for j in range(3)] for i in range(3)]
    return a1, a2


def cartan_t4_generators():
    # (A, -(A + I), A - A^2) for A the companion matrix of
    # x^4 + 5x^3 - x^2 - 5x - 1: rank 3 on T^4, four classes whose normals
    # sum to zero
    flat = [
        [0, 0, 0, 1, 1, 0, 0, 5, 0, 1, 0, 1, 0, 0, 1, -5],
        [-1, 0, 0, -1, -1, -1, 0, -5, 0, -1, -1, -1, 0, 0, -1, 4],
        [0, 0, -1, 6, 1, 0, -5, 29, -1, 1, -1, 1, 0, -1, 6, -31],
    ]
    return [[g[4 * r : 4 * r + 4] for r in range(4)] for g in flat]


def symplectic_double(gens):
    # diag(g, g^-T) for each generator: every Lyapunov functional of the
    # action comes with its negative
    m = len(gens[0])
    out = []
    for g in gens:
        inv = linalg.inverse([[Fraction(v) for v in row] for row in g])
        d = [[0] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                d[i][j] = g[i][j]
                d[m + i][m + j] = int(inv[j][i])
        out.append(d)
    return out


def square_double(gens):
    # diag(g, g^2) for each generator: every Lyapunov functional of the
    # action comes with twice itself, in the same coarse class
    out = []
    for g in gens:
        m = len(g)
        sq = [[sum(g[i][r] * g[r][j] for r in range(m)) for j in range(m)] for i in range(m)]
        d = [[0] * (2 * m) for _ in range(2 * m)]
        for i in range(m):
            for j in range(m):
                d[i][j] = g[i][j]
                d[m + i][m + j] = sq[i][j]
        out.append(d)
    return out


@pytest.fixture(scope="session")
def cartan_action():
    return validate(list(cartan_generators()), name="cartan-t3")


@pytest.fixture(scope="session")
def fibonacci_action():
    return validate([[[1, 1], [1, 0]]], name="fibonacci")


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURES, name)


def restricts_exactly(a, sub) -> bool:
    """A V = V R, exactly, for V the basis vectors of the subspace as
    columns and R = sub.restrict(a); holds iff the subspace is invariant
    under a."""
    r, basis = sub.restrict(a), sub.basis
    return all(
        linalg.mat_vec(a, list(v))
        == [sum(r[i][j] * basis[i][t] for i in range(len(basis))) for t in range(len(v))]
        for j, v in enumerate(basis)
    )


def rational_functional(vec, multiplicity: int = 1):
    """A synthetic Lyapunov functional with rational values."""
    return LyapunovFunctional(
        tuple(LogLinearValue.from_rational(v) for v in vec), multiplicity
    )


# -- sympy references ------------------------------------------------------------
# sympy is a test dependency: the command line never imports it.


def to_sympy(p):
    """An IntPolynomial as a sympy Poly in x over ZZ."""
    import sympy

    return sympy.Poly(list(reversed(p.coeffs)) or [0], sympy.Symbol("x"), domain="ZZ")


def from_sympy(poly):
    """A sympy Poly with rational coefficients as an IntPolynomial, with the
    denominators cleared."""
    import sympy

    from anosov_forge.intpoly import IntPolynomial

    coeffs = [sympy.Rational(c) for c in poly.all_coeffs()]
    den = math.lcm(*[int(c.q) for c in coeffs]) if coeffs else 1
    return IntPolynomial([int(c * den) for c in reversed(coeffs)])
