import json
import subprocess
import sys

import pytest

from conftest import (
    cartan_generators,
    cartan_t4_generators,
    fixture_path,
    symplectic_double,
)

def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "anosov_forge.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_analyze_cartan_exit_zero():
    proc = run_cli("analyze", fixture_path("cartan_t3.json"))
    assert proc.returncode == 0
    assert "hypotheses of the global rigidity theorem: true" in proc.stdout


def test_analyze_example82_exit_one():
    proc = run_cli("analyze", fixture_path("example82.json"))
    assert proc.returncode == 1


def test_analyze_json_deterministic():
    a = run_cli("analyze", fixture_path("cartan_t3.json"), "--json")
    b = run_cli("analyze", fixture_path("cartan_t3.json"), "--json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["theorem_1_1_hypotheses"]["kind"] == "true"
    assert doc["hypotheses"]["tns"]["kind"] == "true"
    assert len(doc["arrangement"]["chambers"]) == 6
    assert "timing_seconds" not in doc


def test_analyze_missing_file_exit_three():
    proc = run_cli("analyze", "/nonexistent/action.json")
    assert proc.returncode == 3
    assert "error" in proc.stderr


def test_analyze_unknown_field_exit_three(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "torus",
                "dim": 2,
                "generators": [[1, 1, 1, 0]],
                "surprise": True,
            }
        )
    )
    proc = run_cli("analyze", str(p))
    assert proc.returncode == 3
    assert "surprise" in proc.stderr


def test_analyze_wrong_schema_version_exit_three(tmp_path):
    p = tmp_path / "v2.json"
    p.write_text(json.dumps({"schema_version": 2, "kind": "torus"}))
    assert run_cli("analyze", str(p)).returncode == 3


def test_analyze_noninteger_entries_exit_three(tmp_path):
    p = tmp_path / "frac.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "torus",
                "dim": 2,
                "generators": [[1.5, 1, 1, 0]],
            }
        )
    )
    assert run_cli("analyze", str(p)).returncode == 3


def test_chambers_svg_deterministic(tmp_path):
    out1, out2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert (
        run_cli(
            "chambers", fixture_path("cartan_t3.json"), "--format", "svg",
            "--out", str(out1),
        ).returncode
        == 0
    )
    assert (
        run_cli(
            "chambers", fixture_path("cartan_t3.json"), "--format", "svg",
            "--out", str(out2),
        ).returncode
        == 0
    )
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1 == b2
    assert b1.startswith(b"<svg")


def test_chambers_svg_rank1_unsupported():
    proc = run_cli("chambers", fixture_path("fibonacci.json"), "--format", "svg")
    assert proc.returncode == 3
    assert proc.stderr.strip() == (
        "error: RankUnsupported: svg diagrams require rank 2, got rank 1"
    )


def test_chambers_json_fibonacci():
    proc = run_cli("chambers", fixture_path("fibonacci.json"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert len(doc["chambers"]) == 2


@pytest.mark.parametrize("command", ["chambers", "selftest"])
def test_json_flag_only_where_it_is_read(tmp_path, command):
    # chambers writes to --out and selftest writes no JSON: a --json there
    # would be accepted and never written
    out = tmp_path / "x.json"
    argv = [fixture_path("cartan_t3.json")] if command == "chambers" else []
    proc = run_cli(command, *argv, "--json", str(out))
    assert proc.returncode == 3
    assert "unrecognized arguments: --json" in proc.stderr
    assert not out.exists()


def test_lift_roundtrip(tmp_path):
    out = tmp_path / "lift.json"
    proc = run_cli(
        "lift", fixture_path("cartan_t3.json"), "--step", "2", "--out", str(out)
    )
    assert proc.returncode in (0, 1)
    doc = json.loads(proc.stdout)
    assert doc["kind"] == "free_nilpotent_lift"
    assert doc["degree_dimensions"] == [3, 3]
    # the emitted graded ActionFile parses and analyzes
    proc2 = run_cli("analyze", str(out), "--json")
    assert proc2.returncode in (0, 1)
    doc2 = json.loads(proc2.stdout)
    assert doc2["kind"] == "graded"


def test_normal_forms_spectrum_file():
    proc = run_cli("normal-forms", fixture_path("spectrum_12.json"))
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["sr_group_dimension"] == 4


def test_normal_forms_action_with_element():
    proc = run_cli(
        "normal-forms", fixture_path("cartan_t3.json"), "--element=-1,-1"
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["sr_group_dimension"] >= sum(doc["multiplicities"])


def test_normal_forms_missing_file_exit_three():
    proc = run_cli("normal-forms", "/nonexistent/spectrum.json")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: /nonexistent/spectrum.json:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "element, expect",
    [
        ("x,1", "comma-separated integers"),
        ("1", "rank 2"),
        ("1,2,3", "rank 2"),
    ],
)
def test_normal_forms_bad_element_exit_three(element, expect):
    proc = run_cli("normal-forms", fixture_path("cartan_t3.json"), f"--element={element}")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: --element:")
    assert expect in proc.stderr
    assert "Traceback" not in proc.stderr


def test_selftest():
    assert run_cli("selftest").returncode == 0


def test_symplectic_pair_exit_one():
    assert run_cli("analyze", fixture_path("symplectic_pair.json")).returncode == 1


def test_analyze_multiple_files_jobs():
    proc = run_cli(
        "analyze",
        fixture_path("cartan_t3.json"),
        fixture_path("fibonacci.json"),
        "--jobs", "2", "--json",
    )
    # worst exit code across inputs: fibonacci is rank 1 and fails TNS
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert len(doc["reports"]) == 2


def test_analyze_starts_no_more_workers_than_files(monkeypatch, capsys):
    import concurrent.futures

    from anosov_forge.cli import main

    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    files = [fixture_path("cartan_t3.json"), fixture_path("fibonacci.json")]
    assert main(["analyze", *files, "--jobs", "64", "--json"]) == 1
    assert started == [2]
    assert len(json.loads(capsys.readouterr().out)["reports"]) == 2


def test_analyze_jobs_non_unimodular_exit_three(tmp_path):
    p = tmp_path / "det2.json"
    p.write_text(
        json.dumps(
            {"schema_version": 1, "kind": "torus", "dim": 2, "generators": [[2, 0, 0, 1]]}
        )
    )
    proc = run_cli(
        "analyze", fixture_path("cartan_t3.json"), str(p), "--jobs", "2", "--json"
    )
    assert proc.returncode == 3
    assert "NotUnimodular" in proc.stderr
    assert "Traceback" not in proc.stderr


def _cartan_doc():
    with open(fixture_path("cartan_t3.json")) as fh:
        return json.load(fh)


def _torus_doc(gens, options=None):
    doc = {
        "schema_version": 1,
        "kind": "torus",
        "dim": len(gens[0]),
        "generators": [[v for row in g for v in row] for g in gens],
    }
    if options:
        doc["options"] = options
    return doc


def _coplanar_doc():
    # (A, A - I, A(A - I)): the third class normal is the sum of the other
    # two, so the 3 x 3 minor of classes (0, 1, 2) is exactly zero, which
    # intervals cannot show; at a cap of 128 bits it ends undecided
    a, b = cartan_generators()
    c = [[sum(a[i][m] * b[m][j] for m in range(3)) for j in range(3)] for i in range(3)]
    return _torus_doc([a, b, c], {"precision_cap_bits": 128})


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


@pytest.mark.parametrize(
    "element, exponents, multiplicities, dimension",
    [
        ("1,0", ["-1.057576813575"], [2], 4),
        ("-1,0", ["-0.426632089373", "-0.630944724202"], [2, 2], 12),
    ],
)
def test_normal_forms_merges_equal_exponents_at_an_element(
    tmp_path, element, exponents, multiplicities, dimension
):
    # diag(a1, a1) and diag(a2, a1 a2) on T^6: at (+-1, 0) every stable
    # class of one block has exactly the value of one of the other, so the
    # spectrum is cartan_t3's there with every multiplicity doubled
    a1, a2 = cartan_generators()
    gens = [
        [row + [0] * 3 for row in g] + [[0] * 3 + row for row in h]
        for g, h in ((a1, a1), (a2, _matmul(a1, a2)))
    ]
    p = tmp_path / "shared.json"
    p.write_text(json.dumps(_torus_doc(gens)))
    proc = run_cli("normal-forms", str(p), f"--element={element}")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["exponents"] == exponents
    assert doc["multiplicities"] == multiplicities
    assert doc["sr_group_dimension"] == dimension


def test_normal_forms_spectrum_file_with_equal_exponents_exit_three(tmp_path):
    p = tmp_path / "equal.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "spectrum",
                "exponents": ["-1/2", "-1/2"],
                "multiplicities": [1, 1],
            }
        )
    )
    proc = run_cli("normal-forms", str(p))
    assert proc.returncode == 3
    assert proc.stderr == "error: exponents must be strictly decreasing\n"


def test_options_block_applied(tmp_path):
    doc = _cartan_doc()
    doc["options"] = {"precision_cap_bits": 2048}
    p = tmp_path / "opts.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(p), "--json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["config"] == {"precision_cap_bits": 2048}


def test_options_unknown_field_exit_three(tmp_path):
    doc = _cartan_doc()
    doc["options"] = {"bogus": 1}
    p = tmp_path / "opts.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(p))
    assert proc.returncode == 3
    assert "bogus" in proc.stderr


def test_rank_mismatch_exit_three(tmp_path):
    doc = _cartan_doc()
    doc["rank"] = 3
    p = tmp_path / "rank.json"
    p.write_text(json.dumps(doc))
    assert run_cli("analyze", str(p)).returncode == 3


def test_identity_generator_exit_one(tmp_path):
    p = tmp_path / "identity.json"
    p.write_text(
        json.dumps(
            {
                "schema_version": 1,
                "kind": "torus",
                "dim": 2,
                "generators": [[1, 0, 0, 1]],
            }
        )
    )
    assert run_cli("analyze", str(p)).returncode == 1


def test_repeated_main_calls_in_one_process(tmp_path, capsys):
    # one parser serves every call in a process, so no call may see the
    # options of the one before it
    from anosov_forge.cli import main

    spectrum = fixture_path("spectrum_12.json")
    out = tmp_path / "nf.json"
    assert main(["normal-forms", spectrum, "--json", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(["normal-forms", spectrum]) == 0
    assert capsys.readouterr().out == out.read_text()
    cartan = fixture_path("cartan_t3.json")
    assert main(["analyze", cartan, "--json"]) == 0
    assert capsys.readouterr().out == run_cli("analyze", cartan, "--json").stdout
    with pytest.raises(SystemExit) as exc:
        main(["lift", cartan])
    assert exc.value.code == 3
    assert "the following arguments are required: --step" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["normal-forms", fixture_path("cartan_t3.json"), "--element=-1,-1"],
        ["normal-forms", fixture_path("spectrum_12.json")],
        ["analyze", fixture_path("cartan_t3.json"), "--json"],
    ],
    ids=["normal-forms-element", "normal-forms-spectrum", "analyze"],
)
def test_one_json_load_per_call(monkeypatch, capsys, argv):
    # the document read to tell a spectrum from an action file is the one
    # the action is built from
    from anosov_forge.cli import main

    loads, load = [], json.load
    monkeypatch.setattr(json, "load", lambda fh: loads.append(fh.name) or load(fh))
    assert main(argv) == 0
    assert loads == [argv[1]]
    assert json.loads(capsys.readouterr().out)


def test_lift_step_below_two_exit_three():
    proc = run_cli("lift", fixture_path("cartan_t3.json"), "--step", "1")
    assert proc.returncode == 3


@pytest.mark.parametrize(
    "argv",
    [("chambers",), ("normal-forms", "--element=1,0")],
)
def test_precision_cap_exit_two(tmp_path, argv):
    # at a 32-bit cap the proportionality of two cartan_t3 functionals stays
    # undecided: a precision-cap error is "undecided" (2), not an input error
    doc = _cartan_doc()
    doc["options"] = {"precision_cap_bits": 32}
    p = tmp_path / "cap32.json"
    p.write_text(json.dumps(doc))
    proc = run_cli(argv[0], str(p), *argv[1:])
    assert proc.returncode == 2
    assert proc.stderr.startswith("undecided: UndecidedProportionality:")
    assert "32 bits" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [("analyze", "--bogus", "CARTAN"), ("analyze", "--json", "CARTAN")],
)
def test_usage_error_exit_three(argv):
    # `--json` takes an optional PATH, so it swallows the file and `files`
    # is missing; both calls are usage errors, not "undecided" (2)
    argv = [fixture_path("cartan_t3.json") if a == "CARTAN" else a for a in argv]
    proc = run_cli(*argv)
    assert proc.returncode == 3
    assert proc.stderr.startswith("usage: anosov-forge")
    assert "error: " in proc.stderr
    assert "Traceback" not in proc.stderr


def test_help_exit_zero():
    proc = run_cli("analyze", "--help")
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: anosov-forge analyze")


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_batch_keeps_good_reports(jobs):
    good = fixture_path("cartan_t3.json")
    single = run_cli("analyze", good, "--json")
    proc = run_cli("analyze", good, "/nonexistent.json", "--jobs", jobs, "--json")
    assert proc.returncode == 3
    reports = json.loads(proc.stdout)["reports"]
    assert reports[0] == json.loads(single.stdout)
    assert reports[1] == {
        "file": "/nonexistent.json",
        "error": "InputError: /nonexistent.json: No such file or directory",
    }
    assert "Traceback" not in proc.stderr


def test_analyze_batch_cap_error_counts_two(tmp_path):
    # the unsigned minor of the coplanar normals aborts that file's audit; in
    # a batch it becomes an entry, exit 2
    p = tmp_path / "coplanar.json"
    p.write_text(json.dumps(_coplanar_doc()))
    proc = run_cli("analyze", fixture_path("cartan_t3.json"), str(p), "--json")
    assert proc.returncode == 2
    reports = json.loads(proc.stdout)["reports"]
    assert reports[0]["theorem_1_1_hypotheses"]["kind"] == "true"
    assert reports[1]["file"] == str(p)
    assert reports[1]["error"].startswith("PrecisionExhausted: ")
    assert proc.stderr.startswith(f"undecided: {p}: PrecisionExhausted: ")


def test_analyze_cap_in_sign_step_gives_undecided_report(tmp_path):
    # at a 16-bit cap the signs that start the proportionality test of
    # cartan_t3 stay unresolved: the report names the pair, exit 2
    doc = _cartan_doc()
    doc["options"] = {"precision_cap_bits": 16}
    p = tmp_path / "cap16.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(p), "--json")
    assert proc.returncode == 2
    rep = json.loads(proc.stdout)
    assert rep["hypotheses"]["tns"] == {
        "kind": "undecided",
        "pair": [0, 1],
        "precision_bits": 16,
    }
    assert rep["theorem_1_1_hypotheses"]["kind"] == "undecided"
    assert proc.stderr == ""


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_bad_jobs_exit_three(jobs):
    proc = run_cli("analyze", fixture_path("cartan_t3.json"), "--json", "--jobs", jobs)
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: --jobs must be")
    assert proc.stdout == ""


@pytest.mark.parametrize("flag", ["--bits", "--max-den", "--witness-cap"])
def test_removed_setting_flags_are_usage_errors(flag):
    # the initial precision, the ratio denominator and the witness size are
    # constants: only the precision cap is set, in the file's options
    proc = run_cli("analyze", fixture_path("cartan_t3.json"), "--json", flag, "128")
    assert proc.returncode == 3
    assert f"unrecognized arguments: {flag} 128" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("option", ["max_den", "witness_cap"])
def test_embedded_search_cap_below_one_exit_three(tmp_path, option):
    # the ratio denominator and the witness size are constants, so an
    # embedded value is an unknown field whatever it is
    with open(fixture_path("symplectic_pair.json")) as fh:
        doc = json.load(fh)
    doc["options"] = {option: 0}
    p = tmp_path / "zero.json"
    p.write_text(json.dumps(doc))
    proc = run_cli("analyze", str(p), "--json")
    assert proc.returncode == 3
    assert proc.stderr == f"error: {p}: options: unknown field(s) {option}\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("command", ["chambers", "analyze"])
def test_coplanar_normals_undecided_at_cap(tmp_path, command):
    # the enumerator names the unsigned minor instead of dropping cells
    p = tmp_path / "coplanar.json"
    p.write_text(json.dumps(_coplanar_doc()))
    proc = run_cli(command, str(p))
    assert proc.returncode == 2
    assert proc.stderr.startswith("undecided: PrecisionExhausted:")
    assert "classes (0, 1, 2)" in proc.stderr
    assert "128 bits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_analyze_rank3_not_tns_exit_one(tmp_path):
    # diag(g, g^-T) over cartan_t4: eight classes in negatively proportional
    # pairs with irrational normals, so a minor holding a pair is exactly
    # zero without a [0, 0] enclosure; it is not TNS, with all 14 chambers
    gens = symplectic_double(cartan_t4_generators())
    p = tmp_path / "double.json"
    p.write_text(json.dumps(_torus_doc(gens, {"precision_cap_bits": 128})))
    proc = run_cli("analyze", str(p), "--json")
    assert proc.returncode == 1
    rep = json.loads(proc.stdout)
    assert rep["hypotheses"]["tns"]["kind"] == "false"
    assert rep["hypotheses"]["anosov_in_every_chamber"]["kind"] == "true"
    assert len(rep["arrangement"]["classes"]) == 8
    assert len(rep["arrangement"]["chambers"]) == 14
    assert proc.stderr == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--json"),
        ("chambers", "--out"),
        ("lift", "--step", "2", "--out"),
    ],
)
def test_unwritable_output_path_exit_three(tmp_path, argv):
    # exit 1 would read as "refuted"
    out = tmp_path / "missing" / "x.json"
    proc = run_cli(argv[0], fixture_path("cartan_t3.json"), *argv[1:], str(out))
    assert proc.returncode == 3
    assert proc.stderr == f"error: {out}: No such file or directory\n"


def _spectrum_doc(exponents, multiplicities=None):
    doc = {"schema_version": 1, "kind": "spectrum", "exponents": exponents}
    if multiplicities is not None:
        doc["multiplicities"] = multiplicities
    return doc


def _fibonacci_doc():
    with open(fixture_path("fibonacci.json")) as fh:
        return json.load(fh)


def _graded_doc():
    # the Heisenberg algebra [e0, e1] = e2 with one automorphism
    return {
        "schema_version": 1,
        "kind": "graded",
        "name": "heisenberg",
        "grading": [2, 1],
        "structure_constants": [[0, 1, 2, "1"]],
        "generators": [["1", "1", "0", "1", "0", "0", "0", "0", "-1"]],
    }


def _cartan_entry_true():
    doc = _cartan_doc()
    assert doc["generators"][0][3] == 1
    doc["generators"][0][3] = True
    return doc


@pytest.mark.parametrize(
    "command, doc, named",
    [
        ("normal-forms", _spectrum_doc(["-1", "-2"]), "multiplicities"),
        ("normal-forms", _spectrum_doc(5, [1]), "exponents"),
        ("normal-forms", _spectrum_doc(["-1"], ["a"]), "multiplicities"),
        ("normal-forms", _spectrum_doc(["-1"], [1.5]), "multiplicities"),
        ("normal-forms", _spectrum_doc(["-1", "-2"], [True, 1]), "multiplicities"),
        ("normal-forms", _spectrum_doc([True], [1]), "exponents"),
        ("normal-forms", {**_spectrum_doc(["-1"], [1]), "schema_version": True}, "schema_version"),
        ("normal-forms", {**_spectrum_doc(["-1"], [1]), "schema_version": 7}, "schema_version"),
        (
            "normal-forms",
            {k: v for k, v in _spectrum_doc(["-1"], [1]).items() if k != "schema_version"},
            "schema_version",
        ),
        (
            "analyze",
            {**_cartan_doc(), "options": {"precision_cap_bits": True}},
            "precision_cap_bits",
        ),
        ("analyze", {**_cartan_doc(), "schema_version": True}, "schema_version"),
        ("analyze", {**_fibonacci_doc(), "rank": True}, "rank"),
        ("analyze", _cartan_entry_true(), "generators[0]"),
        (
            "analyze",
            {
                "schema_version": 1,
                "kind": "graded",
                "grading": [2, 1],
                "structure_constants": [[0, True, 2, "1"]],
                "generators": [["1", "1", "0", "1", "0", "0", "0", "0", "-1"]],
            },
            "structure_constants[0]",
        ),
        ("analyze", {**_graded_doc(), "structure_constants": 5}, "structure_constants"),
        ("analyze", {**_graded_doc(), "structure_constants": None}, "structure_constants"),
        ("analyze", {**_cartan_doc(), "name": [1]}, "name"),
        ("chambers", {**_cartan_doc(), "name": [1]}, "name"),
        ("analyze", {**_graded_doc(), "name": {}}, "name"),
        ("chambers", {**_graded_doc(), "name": {}}, "name"),
        # the file's header is read before --element is asked for, and
        # before unknown fields
        ("normal-forms", [1], "top level must be an object"),
        ("normal-forms", {**_cartan_doc(), "schema_version": 2}, "schema_version"),
        (
            "normal-forms",
            {**_spectrum_doc(["-1"], [1]), "schema_version": 2, "extra": 0},
            "schema_version",
        ),
    ],
)
def test_ill_typed_json_exit_three(tmp_path, command, doc, named):
    # JSON true is a Python int, and int() truncates 1.5: neither may pass
    p = tmp_path / "typed.json"
    p.write_text(json.dumps(doc))
    proc = run_cli(command, str(p))
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"error: {p}: ")
    assert named in proc.stderr


@pytest.fixture(scope="module")
def cartan_lift_file(tmp_path_factory):
    """The graded ActionFile that `lift --step 2 --out` writes for cartan_t3."""
    path = tmp_path_factory.mktemp("lift") / "cartan-lift2.json"
    proc = run_cli("lift", fixture_path("cartan_t3.json"), "--step", "2", "--out", str(path))
    assert proc.returncode in (0, 1)
    return path


def _heisenberg_text(**changes):
    return json.dumps({**_graded_doc(), **changes})


def _heisenberg_entry(value):
    return _heisenberg_text(generators=[[value, "1", "0", "1", "0", "0", "0", "0", "-1"]])


@pytest.mark.parametrize(
    "argv, text, code, stderr",
    [
        (
            ["analyze"],
            "{",
            3,
            "error: {p}: invalid JSON (Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1))",
        ),
        (
            ["analyze"],
            _heisenberg_entry("1/0"),
            3,
            "error: {p}: generators[0]: expected an integer or 'p/q' string, got '1/0'",
        ),
        (
            ["analyze"],
            _heisenberg_text(structure_constants=[[0, 1, 2, "x"]]),
            3,
            "error: {p}: structure_constants[0]: expected an integer or 'p/q' "
            "string, got 'x'",
        ),
        (
            ["analyze"],
            _heisenberg_text(
                structure_constants=[[0, 1, 2, 1]],
                generators=[[1, 1, 0, 1, 0, 0, 0, 0, -1]],
            ),
            1,
            "",
        ),
        (
            ["analyze"],
            _heisenberg_text(grading=[2, -1]),
            3,
            "error: {p}: grading must list the graded component dimensions",
        ),
        (
            ["analyze"],
            _heisenberg_text(grading=3),
            3,
            "error: {p}: grading must list the graded component dimensions",
        ),
        (
            ["analyze"],
            _heisenberg_text(structure_constants=[[0, 1, 2]]),
            3,
            "error: {p}: structure_constants[0] must be [a, b, c, value]",
        ),
        (
            ["analyze"],
            _heisenberg_entry("1/2"),
            3,
            "error: {p}: generators: generator 0 is not integral on the lattice basis",
        ),
        (
            ["normal-forms"],
            json.dumps(_cartan_doc()),
            3,
            "error: --element is required when the input is an action file",
        ),
        (["chambers"], None, 0, ""),
        (["lift", "--step", "2"], None, 3, "error: {p}: lift requires a torus action"),
        (
            ["normal-forms", "--element=1,0"],
            None,
            3,
            "error: {p}: normal-forms requires a torus action",
        ),
    ],
    ids=[
        "invalid-json",
        "graded-entry-zero-denominator",
        "bracket-value-x",
        "graded-integer-entries",
        "negative-grading",
        "grading-not-a-list",
        "bracket-of-three",
        "graded-entry-one-half",
        "action-without-element",
        "chambers-graded",
        "lift-graded",
        "normal-forms-graded",
    ],
)
def test_reader_error_lines(tmp_path, cartan_lift_file, argv, text, code, stderr):
    # text None: the step-2 lift of cartan_t3, a graded file
    if text is None:
        p = cartan_lift_file
    else:
        p = tmp_path / "doc.json"
        p.write_text(text)
    proc = run_cli(argv[0], str(p), *argv[1:])
    assert proc.returncode == code
    assert proc.stderr == (stderr.format(p=p) + "\n" if stderr else "")


def test_normal_forms_spectrum_rejects_element():
    # an option that is accepted and never read is an input error
    proc = run_cli("normal-forms", fixture_path("spectrum_12.json"), "--element=garbage")
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: --element:")
    assert proc.stdout == ""
