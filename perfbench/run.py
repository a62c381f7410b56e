"""Benchmark of the anosov-forge audit pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from src/.
The inputs of a workload are made from --seed and written under
perfbench/work/.  A round runs every operation of the workload, each an
`anosov_forge.cli.main([...])` call, in one fresh interpreter
(perfbench/worker.py), so lru caches start cold in every round as they do
for a user.  Rounds repeat until --seconds have passed.  Every output is
checked against the oracles in oracle.py.

With --trace 0 the last line of stdout reports the end-to-end metrics:
  setup_s      median over rounds of the time the fresh worker interpreter
               takes until `import anosov_forge.cli` has returned
  total_s      sum over the operations of each one's best wall time
  op_p50_s     median over the operations of each one's best wall time
  peak_rss_mb  median over rounds of the worker's peak resident memory
An operation's best time is the fastest of its rounds.  Other tenants of a
shared machine only ever add time, and they come and go within seconds, so
the fastest sample repeats far better than the median of a few.
With --trace 1 it alternates plain and traced rounds and reports the
per-layer metrics of tracer.py (medians over traced rounds) and
trace.overhead_s, the traced total_s minus the plain one.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

import checks
import inputs
from tracer import unit_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(HERE, "out")
RUN_LIMIT_S = 170  # every run must end within 180 s
# Seeded inputs per round.  Degree 4 gets seven instances so that the median
# operation of `spectral` falls inside a cluster of similar audits rather
# than on one seeded polynomial; see README.md.
SPECTRAL_PAIRS = {4: 7, 5: 2, 6: 1, 7: 1, 8: 1}
RANK3_SEEDED = 1
LENGTH4_SAMPLE = 16
PAIR_ELEMENTS = 4


class Op:
    """One CLI call, the file it writes and the check of that file."""

    def __init__(self, argv, out, check):
        self.argv = argv
        self.out = out
        self.check = check
        self.verified = None  # (bytes, exit code) of the last output that passed


def _write(path, doc) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return path


def _analyze_op(work, action) -> Op:
    src = _write(os.path.join(work, f"{action.name}.json"), action.document())
    out = os.path.join(work, f"{action.name}.report.json")
    return Op(
        ["analyze", src, "--json", out],
        out,
        lambda doc, code, a=action: checks.check_analyze(
            a.tuples(), a.rank, a.dim, a.semisimple, doc, code
        ),
    )


def spectral_ops(rng, work) -> list[Op]:
    """Decidable rank-2 audits: (A, A - I) for seeded unit polynomials of
    degree 4..8, the four torus fixtures, and the step-2 lift of cartan_t3."""
    actions = inputs.spectral_actions(rng, SPECTRAL_PAIRS) + inputs.fixture_actions()
    ops = [_analyze_op(work, a) for a in actions]
    cartan = inputs.cartan_t3()
    src = os.path.join(work, f"{cartan.name}.json")
    out = os.path.join(work, "cartan-t3.lift.json")
    ops.append(
        Op(
            ["lift", src, "--step", "2", "--json", out],
            out,
            lambda doc, code: checks.check_lift(cartan.tuples(), 2, 3, doc, code),
        )
    )
    return ops


def precision_cap_ops(rng, work) -> list[Op]:
    """Rank-3 actions on T^4 with a lowered embedded cap, plus the
    dependent pair (A, A^2) at the default cap."""
    actions = [inputs.cartan_t4()] + inputs.rank3_actions(rng, RANK3_SEEDED)
    actions.append(inputs.dependent_pair())
    return [_analyze_op(work, a) for a in actions]


def subresonance_ops(rng, work) -> list[Op]:
    """`normal-forms` on every criterion-7 spectrum of length <= 3, a seeded
    sample of length 4, and chamber elements of cartan_t3 and of one
    degree-4 pair."""
    spectra = [s for n in (1, 2, 3) for s in inputs.criterion7_family(n)]
    spectra += rng.sample(inputs.criterion7_family(4), LENGTH4_SAMPLE)
    ops = []
    for i, (exps, mults) in enumerate(spectra):
        src = _write(os.path.join(work, f"spectrum-{i}.json"), inputs.spectrum_document(exps, mults))
        out = os.path.join(work, f"spectrum-{i}.nf.json")
        ops.append(
            Op(
                ["normal-forms", src, "--json", out],
                out,
                lambda doc, code, e=exps, m=mults: checks.check_spectrum(e, m, doc, code),
            )
        )
    # The pair is fixed, not seeded: one --element call on a seeded quartic
    # can take 0.05 s or 5 s, and that would swamp every other difference.
    pair = inputs.polynomial_action(
        "nf-pair-d4", inputs.random_unit_polynomial(random.Random(0), 4), [[0, 1], [-1, 1]]
    )
    for action, count in ((inputs.cartan_t3(), 6), (pair, PAIR_ELEMENTS)):
        src = _write(os.path.join(work, f"{action.name}.json"), action.document())
        for b in inputs.chamber_elements(action, count):
            tag = ",".join(map(str, b))
            out = os.path.join(work, f"{action.name}.nf[{tag}].json")
            ops.append(
                Op(
                    ["normal-forms", src, f"--element={tag}", "--json", out],
                    out,
                    lambda doc, code, a=action, b=b: checks.check_element(
                        a.tuples(), a.rank, b, doc, code
                    ),
                )
            )
    return ops


WORKLOADS = {
    "spectral": spectral_ops,
    "precision_cap": precision_cap_ops,
    "subresonance": subresonance_ops,
}


# -- running ----------------------------------------------------------------------


def run_round(ops, work, index, trace_path, timeout) -> dict:
    """One worker interpreter over all operations.  Adds "setup_s": the
    time from starting the interpreter until `import anosov_forge.cli` has
    returned in it (time.monotonic is one clock for every process)."""
    result = os.path.join(work, f"round-{index}.json")
    plan = _write(
        os.path.join(work, f"plan-{index}.json"),
        {"ops": [op.argv for op in ops], "result": result, "trace": trace_path},
    )
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, WORKER, plan],
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed: {proc.stderr[-2000:]}")
    with open(result) as fh:
        rnd = json.load(fh)
    rnd["setup_s"] = rnd["ready"] - spawned
    return rnd


class Tally:
    """Failures and correctness over every round."""

    def __init__(self):
        self.attempted = self.failed = self.flagged = 0
        self.problems: list[str] = []
        self.failures: dict[str, str] = {}  # operation -> why it failed

    def add(self, ops, rnd) -> None:
        for op, code, err in zip(ops, rnd["codes"], rnd["errors"]):
            self.attempted += 1
            if code not in (0, 1):
                self.failed += 1
                self.failures[" ".join(op.argv)] = f"exit {code} {err.strip()}"
                continue
            with open(op.out, "rb") as fh:
                data = fh.read()
            if op.verified == (data, code):
                continue
            problems, flagged = op.check(json.loads(data), code)
            self.flagged += flagged
            if problems:
                self.problems += [f"{' '.join(op.argv[:2])}: {p}" for p in problems]
            else:
                op.verified = (data, code)


def per_op_best(rounds) -> list[float]:
    """Each operation's fastest wall time over the rounds."""
    return [min(ts) for ts in zip(*(r["times"] for r in rounds))]


def main(argv=None) -> int:
    t_start = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "anosov_forge", "cli.py")):
        print("error: src/anosov_forge not found; run from a source checkout", file=sys.stderr)
        return 2

    work = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.makedirs(OUT_DIR, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](random.Random(args.seed), work)
        tally = Tally()
        plain, traced = [], []
        trace_path = os.path.join(work, "trace-round.json")
        t0 = time.perf_counter()
        longest = 0.0
        while True:
            with_trace = bool(args.trace) and len(traced) < len(plain)
            remaining = RUN_LIMIT_S - (time.perf_counter() - t_start)
            r0 = time.perf_counter()
            rnd = run_round(ops, work, len(plain) + len(traced), trace_path if with_trace else None, remaining)
            longest = max(longest, time.perf_counter() - r0)
            tally.add(ops, rnd)
            if with_trace:
                with open(trace_path) as fh:
                    rnd["trace"] = json.load(fh)["metrics"]
                traced.append(rnd)
            else:
                plain.append(rnd)
            elapsed = time.perf_counter() - t0
            enough = elapsed >= args.seconds and (not args.trace or traced)
            no_room = time.perf_counter() - t_start + 1.2 * longest > RUN_LIMIT_S
            if enough or no_room:
                break

        times = per_op_best(plain)
        if args.trace:
            keys = traced[0]["trace"].keys()
            metrics = {
                k: statistics.median(r["trace"][k] for r in traced) for k in keys
            }
            metrics["trace.overhead_s"] = sum(per_op_best(traced)) - sum(times)
            with open(os.path.join(OUT_DIR, f"trace_{args.workload}.json"), "w") as fh:
                json.dump(metrics, fh, indent=1, sort_keys=True)
            report = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        else:
            report = {
                "setup_s": {"value": statistics.median(r["setup_s"] for r in plain), "unit": "s"},
                "total_s": {"value": sum(times), "unit": "s"},
                "op_p50_s": {"value": statistics.median(times), "unit": "s"},
                "peak_rss_mb": {
                    "value": statistics.median(r["peak_rss_mb"] for r in plain),
                    "unit": "MB",
                },
            }
        for p in tally.problems[:20]:
            print(f"MISMATCH {p}", file=sys.stderr)
        for argv, why in tally.failures.items():
            print(f"FAILED {argv}: {why}", file=sys.stderr)
        result = {
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": report,
        }
        print(
            f"workload={args.workload} seed={args.seed} rounds={len(plain)}+{len(traced)} "
            f"ops/round={len(ops)} flagged={tally.flagged}"
        )
        with open(os.path.join(OUT_DIR, f"result_{args.workload}.json"), "w") as fh:
            ops_detail = [
                {"argv": op.argv[:3], "best_s": t} for op, t in zip(ops, times)
            ]
            json.dump(dict(result, seed=args.seed, ops=ops_detail), fh, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
