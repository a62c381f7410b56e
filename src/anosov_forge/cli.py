"""Command-line interface.

Commands: analyze, lift, chambers, normal-forms, selftest.
Exit codes: 0 = hypotheses verified, 1 = some hypothesis refuted,
2 = undecided at the precision cap, 3 = input or usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from .actions import validate
from .config import DEFAULT_CAP
from .errors import AnosovForgeError, InputError, RankUnsupported, UndecidedAtCap
from .graded import GradedAlgebraAction, validate_graded
from .report import (
    audit_action,
    audit_graded,
    chambers_json,
    chambers_svg,
    exit_code_for,
    frac_str,
    report_to_json,
    value_str,
)

EXIT_TRUE, EXIT_FALSE, EXIT_UNDECIDED, EXIT_INPUT = 0, 1, 2, 3


def _is_int(v) -> bool:
    """A JSON integer: Python's bool is an int, but JSON true/false are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _frac(x, field: str) -> Fraction:
    try:
        if isinstance(x, str):
            return Fraction(x)
        if _is_int(x):
            return Fraction(x)
    except (ValueError, ZeroDivisionError):
        pass
    raise InputError(f"{field}: expected an integer or 'p/q' string, got {x!r}")


def _int(x, field: str) -> int:
    if not _is_int(x):
        raise InputError(f"{field}: entries must be integers")
    return x


def _reject_unknown(obj: dict, allowed: set[str], where: str) -> None:
    extra = sorted(set(obj) - allowed)
    if extra:
        raise InputError(f"{where}: unknown field(s) {', '.join(extra)}")


OPTION_FIELDS = {"precision_cap_bits"}


def _parse_options(doc: dict, path: str) -> int:
    """The precision cap embedded in the file, or DEFAULT_CAP."""
    opts = doc.get("options", {})
    if not isinstance(opts, dict):
        raise InputError(f"{path}: options must be an object")
    _reject_unknown(opts, OPTION_FIELDS, f"{path}: options")
    for key, val in opts.items():
        if not _is_int(val) or val < 0:
            raise InputError(f"{path}: options.{key} must be a non-negative integer")
    return opts.get("precision_cap_bits", DEFAULT_CAP)


def _read_document(path: str) -> dict:
    """The JSON object in the file, whose schema_version must be 1."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON ({exc})")
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top level must be an object")
    if not _is_int(doc.get("schema_version")) or doc["schema_version"] != 1:
        raise InputError(f"{path}: schema_version must be 1")
    return doc


def _generators(doc: dict, dim: int, path: str, entry) -> list:
    """The `generators` array, each a row-major array of dim x dim entries,
    as matrices; `entry(value, field)` reads each entry."""
    gens_raw = doc.get("generators")
    if not isinstance(gens_raw, list) or not gens_raw:
        raise InputError(f"{path}: generators must be a non-empty array")
    gens = []
    for gi, flat in enumerate(gens_raw):
        field = f"{path}: generators[{gi}]"
        if not isinstance(flat, list) or len(flat) != dim * dim:
            raise InputError(f"{field}: expected a row-major array of {dim * dim} entries")
        rows = [flat[r * dim : (r + 1) * dim] for r in range(dim)]
        gens.append([[entry(v, field) for v in row] for row in rows])
    return gens


def load_action_file_with_options(path: str, doc: dict | None = None):
    """Parse an ActionFile; returns (action, precision cap in bits).

    The cap is the file's embedded `precision_cap_bits`, or DEFAULT_CAP.
    `doc` is the file's document when the caller has already read it."""
    if doc is None:
        doc = _read_document(path)
    kind = doc.get("kind")
    cap = _parse_options(doc, path)
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise InputError(f"{path}: name must be a string")
    if kind == "torus":
        _reject_unknown(
            doc,
            {"schema_version", "kind", "name", "dim", "rank", "generators", "options"},
            path,
        )
        dim = doc.get("dim")
        if not _is_int(dim) or dim < 1:
            raise InputError(f"{path}: dim must be a positive integer")
        gens = _generators(doc, dim, path, _int)
        rank = doc.get("rank")
        if rank is not None and (not _is_int(rank) or rank != len(gens)):
            raise InputError(
                f"{path}: rank {rank} does not match {len(gens)} generators"
            )
        return validate(gens, name=name), cap
    if kind == "graded":
        _reject_unknown(
            doc,
            {
                "schema_version",
                "kind",
                "name",
                "grading",
                "structure_constants",
                "generators",
                "options",
            },
            path,
        )
        grading = doc.get("grading")
        if not isinstance(grading, list) or not all(
            _is_int(g) and g >= 0 for g in grading
        ):
            raise InputError(
                f"{path}: grading must list the graded component dimensions"
            )
        sc_raw = doc.get("structure_constants", [])
        if not isinstance(sc_raw, list):
            raise InputError(f"{path}: structure_constants must be an array")
        sc = []
        for qi, quad in enumerate(sc_raw):
            if not isinstance(quad, list) or len(quad) != 4:
                raise InputError(
                    f"{path}: structure_constants[{qi}] must be [a, b, c, value]"
                )
            a, b, c, val = quad
            if not all(_is_int(t) for t in (a, b, c)):
                raise InputError(
                    f"{path}: structure_constants[{qi}]: indices must be integers"
                )
            sc.append((a, b, c, _frac(val, f"{path}: structure_constants[{qi}]")))
        gens = _generators(doc, sum(grading), path, _frac)
        try:
            return validate_graded(grading, sc, gens, name=name), cap
        except InputError as exc:
            raise InputError(str(exc), field=path) from exc
    raise InputError(f"{path}: kind must be 'torus' or 'graded'")


def _torus_action(path: str, command: str, doc: dict | None = None):
    """(action, cap) of an action file, which must be a torus action."""
    obj, cap = load_action_file_with_options(path, doc)
    if isinstance(obj, GradedAlgebraAction):
        raise InputError(f"{path}: {command} requires a torus action")
    return obj, cap


def graded_action_file(g: GradedAlgebraAction) -> dict:
    """Serialize a graded action back to the ActionFile schema."""
    return {
        "schema_version": 1,
        "kind": "graded",
        "name": g.name,
        "grading": list(g.grading),
        "structure_constants": [[a, b, c, frac_str(v)] for a, b, c, v in g.brackets],
        "generators": [
            [frac_str(v) for row in gen for v in row] for gen in g.action.generators
        ],
    }


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise InputError(f"{out_path}: {exc.strerror or exc}")
    else:
        sys.stdout.write(text)


def _analyze_one(path: str) -> dict:
    obj, cap = load_action_file_with_options(path)
    if isinstance(obj, GradedAlgebraAction):
        return audit_graded(obj, cap)
    return audit_action(obj, cap)


def _analyze_entry(path: str) -> tuple[dict, int]:
    """One file of a batch: its report, or an error entry, with its exit code."""
    try:
        rep = _analyze_one(path)
    except AnosovForgeError as exc:
        code = EXIT_UNDECIDED if isinstance(exc, UndecidedAtCap) else EXIT_INPUT
        return {"file": path, "error": f"{exc.__class__.__name__}: {exc}"}, code
    return rep, exit_code_for(rep)


def cmd_analyze(args) -> int:
    if args.jobs < 1:
        raise InputError(f"--jobs must be a positive integer, got {args.jobs}")
    if len(args.files) == 1:
        rep = _analyze_one(args.files[0])
        entries = [(rep, exit_code_for(rep))]
    elif args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        # the pool starts all its workers at the first submit: one per file at most
        with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.files))) as pool:
            entries = list(pool.map(_analyze_entry, args.files))
    else:
        entries = [_analyze_entry(p) for p in args.files]
    reports = [rep for rep, _ in entries]
    for rep, code in entries:
        if "error" in rep:
            label = "undecided" if code == EXIT_UNDECIDED else "error"
            print(f"{label}: {rep['file']}: {rep['error']}", file=sys.stderr)
    payload = reports[0] if len(reports) == 1 else {"reports": reports}
    if args.json is not None:
        _emit(report_to_json(payload), args.json or None)
    else:
        for rep in reports:
            if "error" not in rep:
                _print_summary(rep)
    return max(code for _, code in entries)


def _print_summary(rep: dict) -> None:
    name = rep.get("name") or "<unnamed>"
    print(f"{name} ({rep['kind']}, dim {rep['dim']}, rank {rep['rank']})")
    for key in sorted(rep["hypotheses"]):
        print(f"  {key}: {rep['hypotheses'][key]['kind']}")
    agg = rep["theorem_1_1_hypotheses"]["kind"]
    print(f"  => hypotheses of the global rigidity theorem: {agg}")


def cmd_chambers(args) -> int:
    from .weyl import coarse_classes, lyapunov_data, weyl_chambers

    obj, cap = load_action_file_with_options(args.file)
    if isinstance(obj, GradedAlgebraAction):
        obj = obj.action
    classes = coarse_classes(lyapunov_data(obj), cap)
    chambers = weyl_chambers(classes, cap)
    if args.format == "svg":
        if obj.rank != 2:
            raise RankUnsupported(obj.rank)
        _emit(chambers_svg(classes, chambers), args.out)
    else:
        _emit(report_to_json(chambers_json(classes, chambers)), args.out)
    return EXIT_TRUE


def cmd_lift(args) -> int:
    from .freenil import free_nilpotent_lift

    obj, cap = _torus_action(args.file, "lift")
    if args.step < 2:
        raise InputError(f"lift step must be at least 2, got {args.step}")
    lift = free_nilpotent_lift(obj, args.step)
    if args.out:
        _emit(report_to_json(graded_action_file(lift)), args.out)
    rep = audit_action(lift.action, cap)
    rep["kind"] = "free_nilpotent_lift"
    rep["step"] = lift.step
    rep["base_dim"] = lift.grading[0]
    rep["degree_dimensions"] = list(lift.grading)
    _emit(report_to_json(rep), args.json or None)
    return exit_code_for(rep)


def _parse_element(text: str, rank: int) -> tuple[int, ...]:
    try:
        b = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError(f"--element: expected comma-separated integers, got {text!r}")
    if len(b) != rank:
        raise InputError(f"--element: got {len(b)} entries for an action of rank {rank}")
    return b


def cmd_normal_forms(args) -> int:
    from .normalforms import ContractionSpectrum, _dimension, subresonance_indices
    from .weyl import coarse_classes, lyapunov_data, stable_set

    cap = DEFAULT_CAP
    doc = _read_document(args.file)
    if doc.get("kind") == "spectrum":
        if args.element is not None:
            raise InputError("--element: applies to action files, not to a spectrum")
        _reject_unknown(
            doc, {"schema_version", "kind", "exponents", "multiplicities"}, args.file
        )
        exps = doc.get("exponents")
        if not isinstance(exps, list):
            raise InputError(f"{args.file}: exponents must be an array")
        mults = doc.get("multiplicities")
        if not isinstance(mults, list) or not all(_is_int(m) for m in mults):
            raise InputError(f"{args.file}: multiplicities must be an array of integers")
        exps = [_frac(x, f"{args.file}: exponents") for x in exps]
        spec = ContractionSpectrum.build(exps, mults, cap)
    else:
        if args.element is None:
            raise InputError(
                "--element is required when the input is an action file"
            )
        obj, cap = _torus_action(args.file, "normal-forms", doc)
        b = _parse_element(args.element, obj.rank)
        classes = coarse_classes(lyapunov_data(obj), cap)
        stable = stable_set(classes, b, cap)
        if not stable:
            raise InputError(f"element {b} has no stable classes")
        # classes with exactly equal values at b form one block
        exps, mults = [], []
        for v, m in sorted(
            ((c.value_at(b), c.total_multiplicity) for c in stable),
            key=lambda p: p[0].midpoint(128),
            reverse=True,
        ):
            if exps and (exps[-1] - v).sign(cap) == 0:
                mults[-1] += m
            else:
                exps.append(v)
                mults.append(m)
        spec = ContractionSpectrum.build(exps, mults, cap)
    indices = subresonance_indices(spec, cap)
    out = {
        "exponents": [
            frac_str(e.const) if not e.terms else value_str(e) for e in spec.exponents
        ],
        "multiplicities": list(spec.multiplicities),
        "subresonance_indices": [
            {"target": ix.target, "degrees": list(ix.degrees)} for ix in indices
        ],
        "sr_group_dimension": _dimension(spec, indices),
    }
    _emit(report_to_json(out), args.json or None)
    return EXIT_TRUE


def cmd_selftest(args) -> int:
    """Fast end-to-end sanity checks on built-in examples."""
    from .freenil import hall_basis
    from .modulus import has_unit_modulus_root
    from .intpoly import IntPolynomial
    from .weyl import coarse_classes, is_tns, lyapunov_data, weyl_chambers

    checks = []
    fib = validate([[[1, 1], [1, 0]]], name="fib")
    fs = lyapunov_data(fib)
    checks.append(("rank-1 functional count", len(fs) == 2))
    checks.append(
        ("golden mean not on unit circle",
         not has_unit_modulus_root(IntPolynomial((-1, -1, 1)))),
    )
    checks.append(
        ("cyclotomic on unit circle",
         has_unit_modulus_root(IntPolynomial((1, -1, 1)))),
    )
    a1 = [[0, 0, -1], [1, 0, 3], [0, 1, 0]]
    a2 = [[a1[i][j] - (i == j) for j in range(3)] for i in range(3)]
    cartan = validate([a1, a2], name="cartan")
    classes = coarse_classes(lyapunov_data(cartan))
    checks.append(("cartan T^3 coarse classes", len(classes) == 3))
    checks.append(("cartan T^3 is TNS", is_tns(classes)[0]))
    checks.append(("cartan T^3 chamber count", len(weyl_chambers(classes)) == 6))
    t4 = [
        [[0, 0, 0, 1], [1, 0, 0, 5], [0, 1, 0, 1], [0, 0, 1, -5]],
        [[-1, 0, 0, -1], [-1, -1, 0, -5], [0, -1, -1, -1], [0, 0, -1, 4]],
        [[0, 0, -1, 6], [1, 0, -5, 29], [-1, 1, -1, 1], [0, -1, 6, -31]],
    ]
    classes = coarse_classes(lyapunov_data(validate(t4, name="cartan-t4")))
    checks.append(("cartan T^4 chamber count", len(weyl_chambers(classes)) == 14))
    checks.append(
        ("free 2-step Hall dimensions on 3 generators",
         hall_basis(3, 2).degree_dimensions() == (3, 3)),
    )
    ok = True
    for label, passed in checks:
        print(f"[{'ok' if passed else 'FAIL'}] {label}")
        ok = ok and passed
    return EXIT_TRUE if ok else EXIT_FALSE


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error; here 2 means "undecided at the
    cap", so usage errors exit 3 like every other input error.  Subparsers
    are created with the class of their parent and inherit this."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process on the first `main` call; each
    subcommand's handler binds then.  `parse_args` makes a fresh Namespace
    and never mutates the parser, so one parser serves every call."""
    p = _ArgumentParser(
        prog="anosov-forge",
        description="Certified checks for higher-rank actions by toral and "
        "nilmanifold automorphisms.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def json_flag(sp):
        sp.add_argument("--json", metavar="PATH", nargs="?", const="", default=None,
                        help="emit JSON (to PATH, or stdout when no PATH)")

    sp = sub.add_parser("analyze", help="audit theorem hypotheses for action files")
    sp.add_argument("files", nargs="+")
    sp.add_argument("--jobs", type=int, default=1, help="parallel workers")
    json_flag(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("chambers", help="Weyl chamber arrangement (JSON or SVG)")
    sp.add_argument("file")
    sp.add_argument("--format", choices=("json", "svg"), default="json")
    sp.add_argument("--out", metavar="PATH")
    sp.set_defaults(func=cmd_chambers)

    sp = sub.add_parser("lift", help="free nilpotent lift of a torus action")
    sp.add_argument("file")
    sp.add_argument("--step", type=int, required=True, help="nilpotency step")
    sp.add_argument("--out", metavar="PATH", help="write lifted graded ActionFile")
    json_flag(sp)
    sp.set_defaults(func=cmd_lift)

    sp = sub.add_parser(
        "normal-forms", help="subresonance data for a spectrum or chamber element"
    )
    sp.add_argument("file")
    sp.add_argument("--element", help="comma-separated integer element, e.g. '1,0'")
    json_flag(sp)
    sp.set_defaults(func=cmd_normal_forms)

    sp = sub.add_parser("selftest", help="run built-in sanity checks")
    sp.set_defaults(func=cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except UndecidedAtCap as exc:
        print(f"undecided: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    except AnosovForgeError as exc:
        print(f"error: {exc.__class__.__name__}: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
