"""Compare CLI outputs with the oracles.

Each check returns (problems, flagged): a list of disagreements and the
number of decisions the oracle left undecided because a value sat within
oracle.TOL of a boundary.  Outputs are never compared with a stored copy of
an earlier run, only with the construction of the input.
"""

from __future__ import annotations

from fractions import Fraction

import oracle

MATCH = 1e-9  # report floats carry 12 decimals


class Audit:
    """Oracle view of one action: functionals, classes and their images."""

    def __init__(self, tuples, rank: int):
        self.funcs, self.flagged = oracle.functionals(tuples)
        self.classes = oracle.Classes(self.funcs)
        self.flagged += self.classes.flagged
        self.rank = rank

    def match_functional(self, floats) -> list[int]:
        return [
            i
            for i, f in enumerate(self.funcs)
            if max(abs(a - b) for a, b in zip(f.floats(), floats)) < MATCH
        ]

    def match_class(self, normal) -> list[int]:
        """Oracle classes whose normal points the same way as `normal`."""
        n = sum(x * x for x in normal) ** 0.5
        unit = [x / n for x in normal]
        out = []
        for c, v in enumerate(self.classes.normals):
            w = [float(x) for x in v]
            m = sum(x * x for x in w) ** 0.5
            if max(abs(a - b / m) for a, b in zip(unit, w)) < MATCH:
                out.append(c)
        return out


def check_analyze(tuples, rank: int, dim: int, semisimple: bool, doc, code):
    """Every verdict and certificate in an `analyze --json` report."""
    audit = Audit(tuples, rank)
    problems: list[str] = []
    flagged = audit.flagged
    classes = audit.classes

    def expect(label, got, want):
        if got != want:
            problems.append(f"{label}: got {got!r}, expected {want!r}")

    hyp = doc["hypotheses"]
    expect("dim", doc["dim"], dim)
    expect("rank", doc["rank"], rank)
    semi = "true" if semisimple else "false"
    expect("semisimple", hyp["semisimple"]["kind"], semi)
    expect("totally_reducible", hyp["totally_reducible"]["kind"], semi)

    # log-modulus vectors and multiplicities
    reported = doc["arrangement"]["functionals"]
    expect("functional count", len(reported), len(audit.funcs))
    for f in reported:
        hits = audit.match_functional([float(v) for v in f["log_values"]])
        if len(hits) != 1:
            problems.append(f"functional {f['log_values']} matches {len(hits)} oracle vectors")
        elif audit.funcs[hits[0]].multiplicity != f["multiplicity"]:
            problems.append(f"functional {f['log_values']}: wrong multiplicity")

    # coarse classes, mapped to the oracle's by their normal direction
    rclasses = doc["arrangement"]["classes"]
    expect("coarse class count", len(rclasses), len(classes))
    to_oracle = {}
    for c in rclasses:
        hits = audit.match_class([float(v) for v in c["normal"]])
        if len(hits) != 1:
            problems.append(f"class {c['index']} matches {len(hits)} oracle classes")
            continue
        to_oracle[c["index"]] = hits[0]
        expect(
            f"class {c['index']} multiplicity",
            c["total_multiplicity"],
            classes.multiplicities[hits[0]],
        )
    if problems:
        return problems, flagged

    def oracle_sign(c, w):
        nonlocal flagged
        s = oracle.sign(classes.value(to_oracle[c], w))
        if s is None:
            flagged += 1
        return s

    # TNS verdict and its certificates
    tns = hyp["tns"]
    expect("tns", tns["kind"], "true" if classes.is_tns() else "false")
    if tns["kind"] == "true":
        pairs = tns["joint_contraction_witnesses"]
        expect("witness pairs", len(pairs), len(classes) * (len(classes) - 1) // 2)
        for key, w in pairs.items():
            for c in map(int, key.split(",")):
                if oracle_sign(c, w) == 1:
                    problems.append(f"witness {w} does not contract class {c}")
    elif tns["kind"] == "false" and "negative_pair" in tns:
        i, j = tns["negative_pair"]
        rel = oracle.relation(classes.normals[to_oracle[i]], classes.normals[to_oracle[j]])
        expect(f"classes {i},{j} relation", rel, "neg")

    # chambers: count, distinct sign vectors, certified signs, Anosov witnesses
    chambers = doc["arrangement"]["chambers"]
    expect("chamber count", len(chambers), oracle.chamber_count(classes, rank))
    expect("distinct chamber signs", len({tuple(ch["signs"]) for ch in chambers}), len(chambers))
    all_anosov = True
    for ch in chambers:
        w = ch["witness"]
        for c, s in enumerate(ch["signs"]):
            got = oracle_sign(c, w)
            if got is not None and got != s:
                problems.append(f"witness {w}: class {c} has sign {got}, report says {s}")
        anosov = oracle.anosov_at(audit.funcs, w)
        if anosov is None:
            flagged += 1
        else:
            expect(f"witness {w} Anosov", ch["witness_anosov"], anosov)
        all_anosov = all_anosov and ch["witness_anosov"]
    expect(
        "anosov_in_every_chamber",
        hyp["anosov_in_every_chamber"]["kind"],
        "true" if all_anosov else "false",
    )
    verdict = semisimple and classes.is_tns() and all_anosov
    expect("aggregate", doc["theorem_1_1_hypotheses"]["kind"], "true" if verdict else "false")
    expect("exit code", code, 0 if verdict else 1)
    return problems, flagged


def check_lift(base_tuples, rank: int, base_dim: int, doc, code):
    """`lift --step 2` report: the audit of the lifted action."""
    problems, flagged = check_analyze(
        oracle.lift2_tuples(base_tuples),
        rank,
        base_dim + base_dim * (base_dim - 1) // 2,
        True,
        doc,
        code,
    )
    if doc.get("kind") != "free_nilpotent_lift" or doc.get("step") != 2:
        problems.append("not a step-2 free nilpotent lift report")
    if doc.get("degree_dimensions") != [base_dim, base_dim * (base_dim - 1) // 2]:
        problems.append(f"degree dimensions {doc.get('degree_dimensions')}")
    return problems, flagged


def _check_subresonance(exps, mults, doc, cmp: oracle.Comparator) -> list[str]:
    problems = []
    if doc["multiplicities"] != list(mults):
        problems.append(f"multiplicities {doc['multiplicities']}, expected {list(mults)}")
    got = {(ix["target"], tuple(ix["degrees"])) for ix in doc["subresonance_indices"]}
    want = oracle.sr_indices(exps, cmp)
    if got != want:
        problems.append(f"subresonance indices differ: {sorted(got ^ want)[:4]}")
    dim = oracle.sr_dimension(exps, mults, cmp)
    if doc["sr_group_dimension"] != dim:
        problems.append(f"sr_group_dimension {doc['sr_group_dimension']}, expected {dim}")
    return problems


def check_spectrum(exps: list[Fraction], mults: list[int], doc, code):
    """`normal-forms SPECTRUM`: exact rational comparisons throughout."""
    if code != 0:
        return [f"exit code {code}"], 0
    problems = []
    if [Fraction(e) for e in doc["exponents"]] != list(exps):
        problems.append(f"exponents {doc['exponents']}")
    cmp = oracle.Comparator()
    problems += _check_subresonance(exps, mults, doc, cmp)
    return problems, cmp.flagged


def check_element(tuples, rank: int, b, doc, code):
    """`normal-forms ACTION --element=b`: the stable classes at b give
    log-linear exponents; compared at 60 digits with TOL flags."""
    if code != 0:
        return [f"exit code {code}"], 0
    audit = Audit(tuples, rank)
    classes = audit.classes
    stable = sorted(
        (
            (classes.value(c, b), classes.multiplicities[c])
            for c in range(len(classes))
            if classes.value(c, b) < 0
        ),
        key=lambda t: t[0],
        reverse=True,
    )
    exps = [v for v, _ in stable]
    mults = [m for _, m in stable]
    problems = []
    got = [float(e) for e in doc["exponents"]]
    if len(got) != len(exps) or any(abs(g - float(e)) > MATCH for g, e in zip(got, exps)):
        problems.append(f"exponents {doc['exponents']}, expected {[float(e) for e in exps]}")
        return problems, audit.flagged
    cmp = oracle.Comparator()
    problems += _check_subresonance(exps, mults, doc, cmp)
    return problems, audit.flagged + cmp.flagged
