"""Audit reports: JSON-serializable hypothesis verdicts and SVG diagrams.

Reports are deterministic byte for byte given (input, options): rationals
serialize as "p/q" strings, floats as fixed-precision decimals derived from
certified midpoints, and no timestamps are embedded.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .actions import ValidatedAction, is_totally_reducible
from .config import DEFAULT_CAP, REPORT_BITS
from .errors import NotAnosovAction, UndecidedProportionality
from .graded import GradedAlgebraAction, is_totally_reducible_graded
from .logval import LogLinearValue
from .weyl import (
    CoarseClass,
    LyapunovFunctional,
    WeylChamber,
    anosov_in_every_chamber,
    coarse_classes,
    is_tns,
    lyapunov_data,
    weyl_chambers,
)


def frac_str(x) -> str:
    f = Fraction(x)
    return f"{f.numerator}/{f.denominator}" if f.denominator != 1 else str(f.numerator)


def value_str(v: LogLinearValue) -> str:
    """A certified value as 12 decimals of its midpoint at REPORT_BITS."""
    return f"{float(v.midpoint(REPORT_BITS)):.12f}"


def functional_json(f: LyapunovFunctional) -> dict:
    return {
        "log_values": [value_str(v) for v in f.values],
        "multiplicity": f.multiplicity,
        "origin": f.origin,
    }


def class_json(c: CoarseClass) -> dict:
    return {
        "index": c.index,
        "member_count": len(c.members),
        "total_multiplicity": c.total_multiplicity,
        "normal": [value_str(v) for v in c.hyperplane_normal.values],
    }


def chamber_json(ch: WeylChamber) -> dict:
    # strict certified signs make the witness Anosov (anosov_in_every_chamber)
    return {
        "signs": list(ch.signs),
        "witness": list(ch.witness),
        "witness_anosov": 0 not in ch.signs,
    }


def _joint_contraction_witness(
    chambers: list[WeylChamber], i: int, j: int
) -> list[int]:
    """Witness of the first chamber negative on classes i and j; one exists
    for classes that are not negatively proportional."""
    return next(
        list(ch.witness) for ch in chambers if ch.signs[i] < 0 and ch.signs[j] < 0
    )


def audit_action(action: ValidatedAction, cap: int = DEFAULT_CAP) -> dict:
    """Full Theorem-1.1-hypothesis audit of a validated toral action."""
    report: dict = {
        "name": action.name,
        "kind": "torus",
        "dim": action.dim,
        "rank": action.rank,
        "config": {"precision_cap_bits": cap},
        "hypotheses": {},
        "arrangement": {},
        "note": (
            "verdicts concern the linearization; Lyapunov hyperplanes and "
            "Weyl chambers of the nonlinear action agree with it"
        ),
    }
    hyp = report["hypotheses"]
    hyp["commuting"] = {"kind": "true"}
    hyp["unimodular"] = {"kind": "true"}
    # totally reducible and semisimple are the same for a toral action
    semi, witness = is_totally_reducible(action)
    hyp["semisimple"] = {"kind": "true" if semi else "false"}
    hyp["totally_reducible"] = {
        "kind": "true" if semi else "false",
        "witness_components": None
        if witness is None
        else [
            {
                "dimension": comp.dim,
                "labels": [
                    [frac_str(c) for c in factor.coeffs]
                    for factor, _ in comp.labels
                ],
            }
            for comp in witness
        ],
    }

    functionals = lyapunov_data(action)
    report["arrangement"]["functionals"] = [functional_json(f) for f in functionals]
    try:
        classes = coarse_classes(functionals, cap)
    except NotAnosovAction:
        hyp["tns"] = {"kind": "false", "reason": "zero Lyapunov functional"}
        hyp["anosov_in_every_chamber"] = {
            "kind": "false",
            "reason": "no element is Anosov (zero functional)",
        }
        report["arrangement"]["classes"] = []
        report["arrangement"]["chambers"] = []
        report["theorem_1_1_hypotheses"] = {"kind": "false"}
        return report
    except UndecidedProportionality as exc:
        hyp["tns"] = {
            "kind": "undecided",
            "pair": list(exc.pair),
            "precision_bits": exc.bits,
        }
        hyp["anosov_in_every_chamber"] = {"kind": "undecided"}
        report["arrangement"]["classes"] = []
        report["arrangement"]["chambers"] = []
        report["theorem_1_1_hypotheses"] = {"kind": "undecided"}
        return report

    report["arrangement"]["classes"] = [class_json(c) for c in classes]
    tns, tns_info = is_tns(classes)
    chambers = weyl_chambers(classes, cap)
    hyp["tns"] = {"kind": "true" if tns else "false"}
    if tns:
        hyp["tns"]["joint_contraction_witnesses"] = {
            f"{i},{j}": _joint_contraction_witness(chambers, i, j)
            for i, j in itertools.combinations(range(len(classes)), 2)
        }
    else:
        hyp["tns"]["negative_pair"] = list(tns_info["negative_pair"])
        if tns_info.get("ratio") is not None:
            hyp["tns"]["ratio"] = frac_str(tns_info["ratio"])

    report["arrangement"]["chambers"] = [chamber_json(ch) for ch in chambers]
    ok = anosov_in_every_chamber(chambers)
    hyp["anosov_in_every_chamber"] = {"kind": "true" if ok else "false"}

    aggregate = semi and tns and ok
    report["theorem_1_1_hypotheses"] = {"kind": "true" if aggregate else "false"}
    return report


def audit_graded(g: GradedAlgebraAction, cap: int = DEFAULT_CAP) -> dict:
    """Audit a graded (nilmanifold) action: the spectral hypotheses run on
    the full lattice matrices; total reducibility uses the graded criterion."""
    report = audit_action(g.action, cap)
    report["kind"] = "graded"
    report["grading"] = list(g.grading)
    reducible, witness = is_totally_reducible_graded(g)
    report["hypotheses"]["totally_reducible"] = {
        "kind": "true" if reducible else "false",
        "degree1_totally_reducible": witness["degree1_totally_reducible"],
        "derived_dimension": witness["derived_dimension"],
        "has_derived_complement": witness["derived_complement"] is not None,
    }
    # total reducibility of a toral action is semisimplicity
    report["hypotheses"]["semisimple_degree1"] = {
        "kind": "true" if witness["degree1_totally_reducible"] else "false"
    }
    return report


def report_to_json(report: dict) -> str:
    """The text of every JSON document the command line writes: reports,
    chamber arrangements, normal forms and lifted ActionFiles."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def exit_code_for(report: dict) -> int:
    kind = report["theorem_1_1_hypotheses"]["kind"]
    return {"true": 0, "false": 1, "undecided": 2}[kind]


# -- SVG chamber diagrams (rank 2 only) ---------------------------------------


def chambers_svg(classes: list[CoarseClass], chambers: list[WeylChamber]) -> str:
    """Unit-disk sector diagram: oriented kernel lines plus witness dots.

    Deterministic text output; geometry uses certified midpoints only."""
    import math

    size, r = 420, 180
    cx = cy = size // 2

    def pt(x: float, y: float) -> tuple[float, float]:
        return cx + r * x, cy - r * y

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="none" stroke="#999"/>',
    ]
    for c in classes:
        gx, gy = (float(v.midpoint(REPORT_BITS)) for v in c.hyperplane_normal.values)
        norm = math.hypot(gx, gy)
        # kernel line direction is the normal rotated a quarter turn
        dx, dy = -gy / norm, gx / norm
        x1, y1 = pt(-dx, -dy)
        x2, y2 = pt(dx, dy)
        parts.append(
            f'<line x1="{x1:.3f}" y1="{y1:.3f}" x2="{x2:.3f}" y2="{y2:.3f}" '
            f'stroke="#333" stroke-width="1.2"/>'
        )
        lx, ly = pt(0.72 * gx / norm, 0.72 * gy / norm)
        parts.append(
            f'<text x="{lx:.3f}" y="{ly:.3f}" font-size="12" fill="#06c">'
            f"L{c.index + 1}+</text>"
        )
    for ch in chambers:
        wx, wy = ch.witness
        norm = math.hypot(wx, wy)
        px, py = pt(0.88 * wx / norm, 0.88 * wy / norm)
        parts.append(f'<circle cx="{px:.3f}" cy="{py:.3f}" r="4" fill="#c33"/>')
        label = "".join("+" if s > 0 else "-" for s in ch.signs)
        parts.append(
            f'<text x="{px + 6:.3f}" y="{py - 6:.3f}" font-size="10" '
            f'fill="#c33">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def chambers_json(
    classes: list[CoarseClass],
    chambers: list[WeylChamber],
) -> dict:
    from math import floor

    def outward(x: Fraction, up: bool) -> str:
        # round to 1e-18 away from the interval interior
        scaled = x * 10**18
        n = -floor(-scaled) if up else floor(scaled)
        sign, n = ("-", -n) if n < 0 else ("", n)
        return f"{sign}{n // 10 ** 18}.{n % 10 ** 18:018d}"

    lines = []
    for c in classes:
        enclosures = []
        for v in c.hyperplane_normal.values:
            # REPORT_BITS: far narrower than the 1e-18 outward rounding
            lo, hi = v.interval(REPORT_BITS)
            enclosures.append([outward(lo, False), outward(hi, True)])
        lines.append({"class": c.index, "normal_enclosures": enclosures})
    return {
        "lines": lines,
        "chambers": [chamber_json(ch) for ch in chambers],
    }
