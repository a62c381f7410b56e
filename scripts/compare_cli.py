"""Compare the command line of two source trees byte for byte.

    python3 scripts/compare_cli.py OLD_SRC NEW_SRC

Runs a fixed corpus of CLI calls twice, once with PYTHONPATH=OLD_SRC and
once with PYTHONPATH=NEW_SRC, each call in a fresh interpreter, and
compares stdout, stderr, the exit code and the bytes of the file that an
`--out` call writes.  Prints every call that differs
and exits 1 if any does, 0 if all agree.  OLD_SRC and NEW_SRC are the
`src/` directories of two checkouts.

The corpus: `analyze` (summary and --json), `chambers` and `lift --step 2
--out --json` on the four torus fixtures, `lift --step 3 --out` on
cartan_t3 and symplectic_pair, and `lift --step 4 --json` on cartan_t3
(dimension 32) and on symplectic_pair (dimension 90, the largest and
sparsest matrices of the corpus); `normal-forms` on the spectrum fixture
and on a spectrum of non-integer exponents (-1/3, -1/2, -5/6, -8/7) with
the exact tie -5/6 = -1/3 - 1/2;
`analyze --json` on each graded file that OLD_SRC's `lift --step 2 --out`
writes for the four torus fixtures and on its `lift --step 3 --out` files
of cartan_t3 (dimension 14) and symplectic_pair (dimension 30, where the
exact linear algebra of the joint components dominates);
`analyze --json` and `chambers` on the seeded spectral pairs of
perfbench seeds 1-4, on cartan_t4 (embedded 128-bit cap and default cap),
the dependent pair (A, A^2), the coplanar action (A, A - I, A(A - I)) and
one seeded rank-3 action; `analyze --json` and `chambers` on the seeded
pairs (A, A - I), p = random_unit_polynomial(Random(0), d), of degree 12,
whose conjugate pairs are ordered at degree 12, and of degree 14, whose
moduli have pair-product candidates of degree 91 (the largest integers of
the disk match and of the evaluation of q_j); `analyze --json` on the
dependent pair with embedded caps of 256 and 1024 bits, refined to those
caps and undecided there; `analyze --json` on the T^6 actions
diag(g, h^13) over the cartan_t3 generators g, for h = g and h = g^-T
(the corpus's one certified ratio other than 1); `analyze --json` on
the T^7 block sum of example82 and cartan_t3 (one component not
semisimple, one semisimple) and on the T^6 block sum diag(a1, a1),
diag(a2, a1 a2) of the cartan_t3 generators, and `normal-forms
--element=1,0` on the latter, where two stable classes have equal
values, at the default cap and at an embedded cap of 128 bits; the
`normal-forms --element` calls of the perfbench `subresonance` workload,
with the JSON on stdout; the input reader's errors: `analyze` on a torus
file with a 1.5 entry and on a graded file with a "1/0" entry,
`normal-forms` on a spectrum file with an unknown field, and `lift
--step 2`, `normal-forms --element=1,0` and `chambers` on the step-2
lift of cartan_t3: 164 calls.
Inputs come from perfbench/inputs.py and perfbench/run.py and are written
to a temporary directory that both trees read.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURES = os.path.join(ROOT, "fixtures")
TORUS_FIXTURES = ("cartan_t3", "fibonacci", "example82", "symplectic_pair")
STEP3_FIXTURES = ("cartan_t3", "symplectic_pair")
SEEDS = (1, 2, 3, 4)
RUNNER = "import sys\nfrom anosov_forge.cli import main\nsys.exit(main(sys.argv[1:]))"


def _write(work: str, name: str, doc: dict) -> str:
    path = os.path.join(work, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def fixture_generators(name: str) -> list[list[list[int]]]:
    """The generators of a torus fixture, as square matrices."""
    with open(os.path.join(FIXTURES, f"{name}.json")) as fh:
        doc = json.load(fh)
    n = doc["dim"]
    return [[f[n * i : n * i + n] for i in range(n)] for f in doc["generators"]]


def mat_mul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def block_sum(name: str, left: list, right: list) -> dict:
    """The torus file of the generators diag(l_i, r_i) for two tuples of
    square integer matrices."""
    n, m = len(left[0]), len(right[0])
    gens = [
        [row + [0] * m for row in g] + [[0] * n + row for row in h]
        for g, h in zip(left, right)
    ]
    return {
        "schema_version": 1,
        "kind": "torus",
        "name": name,
        "dim": n + m,
        "generators": [[v for row in g for v in row] for g in gens],
    }


def block_power_double(lower_inverse: bool, e: int = 13) -> dict:
    """diag(g, h^e) on T^6 for the cartan_t3 generators g, with h = g or
    h = g^-T: functionals f and e f (TNS), or f and -e f (not TNS)."""
    left = fixture_generators("cartan_t3")
    right = []
    for g in left:
        h = g
        if lower_inverse:
            # cofactors over the determinant, +-1: the inverse transpose
            cof = [
                [
                    g[(i + 1) % 3][(j + 1) % 3] * g[(i + 2) % 3][(j + 2) % 3]
                    - g[(i + 1) % 3][(j + 2) % 3] * g[(i + 2) % 3][(j + 1) % 3]
                    for j in range(3)
                ]
                for i in range(3)
            ]
            det = sum(x * c for x, c in zip(g[0], cof[0]))
            h = [[c * det for c in row] for row in cof]
        p = [[int(i == j) for j in range(3)] for i in range(3)]
        for _ in range(e):
            p = mat_mul(p, h)
        right.append(p)
    name = f"block-power-{'inverse' if lower_inverse else 'same'}-{e}"
    return block_sum(name, left, right)


def shared_exponents() -> dict:
    """diag(a1, a1) and diag(a2, a1 a2) on T^6 for the cartan_t3 generators
    a1, a2: two stable classes have equal values at (1, 0)."""
    a1, a2 = fixture_generators("cartan_t3")
    return block_sum("shared-exponents", [a1, a2], [a1, mat_mul(a1, a2)])


def corpus(work: str, old_src: str) -> list[list[str]]:
    """The CLI calls, as argument lists.  The graded inputs are written by
    old_src, so that both trees parse the same files."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import inputs
    import run as bench

    calls: list[list[str]] = []
    graded = []
    for name in TORUS_FIXTURES:
        path = os.path.join(FIXTURES, f"{name}.json")
        calls += [
            ["analyze", path],
            ["analyze", path, "--json"],
            ["chambers", path],
            ["lift", path, "--step", "2", "--out", f"{name}-lift2.out.json", "--json"],
        ]
        graded.append(os.path.join(work, f"{name}-lift2.json"))
        run_cli(old_src, ["lift", path, "--step", "2", "--out", graded[-1]], work)
    for name in STEP3_FIXTURES:
        path = os.path.join(FIXTURES, f"{name}.json")
        calls.append(["lift", path, "--step", "3", "--out", f"{name}-lift3.out.json"])
        graded.append(os.path.join(work, f"{name}-lift3.json"))
        run_cli(old_src, ["lift", path, "--step", "3", "--out", graded[-1]], work)
    cartan = os.path.join(FIXTURES, "cartan_t3.json")
    symplectic = os.path.join(FIXTURES, "symplectic_pair.json")
    calls += [
        ["lift", cartan, "--step", "4", "--json"],
        ["lift", symplectic, "--step", "4", "--json"],
    ]
    calls += [["analyze", g, "--json"] for g in graded]
    calls += [
        ["chambers", cartan, "--format", "svg"],
        ["analyze", *(os.path.join(FIXTURES, f"{n}.json") for n in TORUS_FIXTURES), "--json"],
        ["normal-forms", os.path.join(FIXTURES, "spectrum_12.json"), "--json"],
    ]
    tie = {
        "schema_version": 1,
        "kind": "spectrum",
        "exponents": ["-1/3", "-1/2", "-5/6", "-8/7"],
        "multiplicities": [1, 2, 1, 1],
    }
    calls.append(["normal-forms", _write(work, "spectrum-tie", tie), "--json"])

    with open(cartan) as fh:
        half = json.load(fh)
    half["generators"][0][0] = 1.5
    with open(graded[0]) as fh:
        zero_den = json.load(fh)
    zero_den["generators"][0][0] = "1/0"
    calls += [
        ["analyze", _write(work, "torus-1.5", half)],
        ["analyze", _write(work, "graded-1-0", zero_den)],
        ["normal-forms", _write(work, "spectrum-unknown", {**tie, "extra": 0})],
        ["lift", graded[0], "--step", "2"],
        ["normal-forms", graded[0], "--element=1,0"],
        ["chambers", graded[0]],
    ]

    def both(name: str, doc: dict) -> None:
        path = _write(work, name, doc)
        calls.extend([["analyze", path, "--json"], ["chambers", path]])

    for seed in SEEDS:
        for action in inputs.spectral_actions(random.Random(seed), bench.SPECTRAL_PAIRS):
            both(f"s{seed}-{action.name}", action.document())
    t4 = inputs.cartan_t4()
    both("cartan-t4-cap128", t4.document())
    t4.options = None
    both("cartan-t4", t4.document())
    for d in (12, 14):
        seeded = inputs.polynomial_action(
            f"pair-d{d}", inputs.random_unit_polynomial(random.Random(0), d), [[0, 1], [-1, 1]]
        )
        both(seeded.name, seeded.document())
    pair = inputs.dependent_pair()
    both("dependent-pair", pair.document())
    for cap in (256, 1024):
        pair.options = {"precision_cap_bits": cap}
        path = _write(work, f"dependent-pair-cap{cap}", pair.document())
        calls.append(["analyze", path, "--json"])
    coplanar = inputs.polynomial_action(
        "coplanar", inputs.CARTAN_P, [[0, 1], [-1, 1], [0, -1, 1]],
        options={"precision_cap_bits": 128},
    )
    both("coplanar", coplanar.document())
    for action in inputs.rank3_actions(random.Random(1), 1):
        both(f"s1-{action.name}", action.document())
    for lower_inverse in (False, True):
        doc = block_power_double(lower_inverse)
        calls.append(["analyze", _write(work, doc["name"], doc), "--json"])
    mixed = block_sum(
        "example82-cartan-t3", fixture_generators("example82"), fixture_generators("cartan_t3")
    )
    shared = _write(work, "shared-exponents", shared_exponents())
    capped = {**shared_exponents(), "options": {"precision_cap_bits": 128}}
    shared_cap128 = _write(work, "shared-exponents-cap128", capped)
    calls += [
        ["analyze", _write(work, mixed["name"], mixed), "--json"],
        ["analyze", shared, "--json"],
        ["normal-forms", shared, "--element=1,0", "--json"],
        ["normal-forms", shared_cap128, "--element=1,0", "--json"],
    ]

    for op in bench.subresonance_ops(random.Random(0), work):
        if any(a.startswith("--element=") for a in op.argv):
            calls.append(op.argv[: op.argv.index("--json") + 1])  # JSON to stdout
    return calls


def run_cli(src: str, argv: list[str], work: str) -> tuple[int, bytes, bytes, bytes | None]:
    """Exit code, stdout, stderr, and the bytes of the `--out` file (None
    when the call has no `--out` or wrote nothing).  The file is removed
    first, so a stale copy is never read."""
    out = os.path.join(work, argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out and os.path.exists(out):
        os.remove(out)
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER, *argv], cwd=work, env=env, capture_output=True
    )
    written = None
    if out and os.path.exists(out):
        with open(out, "rb") as fh:
            written = fh.read()
    return proc.returncode, proc.stdout, proc.stderr, written


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old_src")
    ap.add_argument("new_src")
    args = ap.parse_args(argv)
    old, new = (os.path.abspath(p) for p in (args.old_src, args.new_src))
    for src in (old, new):
        if not os.path.isdir(os.path.join(src, "anosov_forge")):
            ap.error(f"{src} holds no anosov_forge package")

    with tempfile.TemporaryDirectory(prefix="compare-cli-") as work:
        calls = corpus(work, old)
        differ = [c for c in calls if run_cli(old, c, work) != run_cli(new, c, work)]
    for c in differ:
        print("differs:", " ".join(c))
    print(f"{len(calls) - len(differ)} of {len(calls)} calls byte-identical")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
