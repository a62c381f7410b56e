"""Per-layer tracing of anosov_forge from outside the package.

Tracer.install() replaces each function in TARGETS by a wrapper that
records a span (name, start, end, parent) in memory.  The package imports
functions by name (`from .weyl import lyapunov_data`), so a plain function
is replaced in every anosov_forge module that binds it; methods are
replaced on their class.  metrics() turns the spans into calls, total and
self time per function (self = total minus the time of wrapped children),
and adds the counters read from call arguments and lru_cache statistics.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from fractions import Fraction

PACKAGE = "anosov_forge"

TARGETS = (
    "cli.load_action_file_with_options",
    "report.audit_action",
    "report.report_to_json",
    "actions.is_semisimple",
    "actions.is_totally_reducible",
    "actions.product_matrix",
    "weyl.lyapunov_data",
    "weyl.coarse_classes",
    "weyl.is_tns",
    "weyl.weyl_chambers",
    "weyl.anosov_in_every_chamber",
    "weyl.stable_set",
    "freenil.free_nilpotent_lift",
    "normalforms.subresonance_indices",
    "normalforms.sr_group_dimension",
    "intpoly.factor_cached",
    "intpoly.resultant_y",
    "intpoly.isolate_real_roots",
    "intpoly.sturm_count",
    "numutil.certified_root_disks",
    "realalg.RealAlgebraic.from_enclosure",
    "realalg.RealAlgebraic.interval",
    "logval.LogLinearValue.sign",
    "logval.LogLinearValue.is_exactly_zero",
    "lp.maximize",
)

# lru caches whose statistics are reported: metric prefix -> (module, attribute)
CACHES = {
    "intpoly.factor_cache": ("intpoly", "_factor_cached"),
    "realalg.isolation_cache": ("realalg", "_isolations"),
}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from the last part of its name."""
    if metric.endswith("_s"):
        return "s"
    if metric.rsplit(".", 1)[1] in ("calls", "hits", "misses", "max_rows"):
        return "count"
    return "bits"


def _bits(v) -> int:
    f = Fraction(v)
    return max(f.numerator.bit_length(), f.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.op_id = self._name_id("op")
        self.maxima = {
            "realalg.RealAlgebraic.interval.max_bits": 0,
            "lp.maximize.max_rows": 0,
            "lp.maximize.max_coeff_bits": 0,
        }

    # -- spans ------------------------------------------------------------------
    def _open(self, name_id: int) -> int:
        idx = len(self.span_start)
        self.span_name.append(name_id)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self.stack.pop()

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def run_op(self, fn, *args):
        """Run one CLI operation under a root span, so that every span of
        the operation descends from it."""
        idx = self._open(self.op_id)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, hook=None):
        name_id = self._name_id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            idx = tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    # -- argument hooks --------------------------------------------------------
    def _interval_hook(self, args):
        key = "realalg.RealAlgebraic.interval.max_bits"
        self.maxima[key] = max(self.maxima[key], int(args[1]))

    def _maximize_hook(self, args):
        _, a, b = args[:3]
        self.maxima["lp.maximize.max_rows"] = max(self.maxima["lp.maximize.max_rows"], len(a))
        bits = max([_bits(v) for row in a for v in row] + [_bits(v) for v in b] + [0])
        key = "lp.maximize.max_coeff_bits"
        self.maxima[key] = max(self.maxima[key], bits)

    # -- installation ------------------------------------------------------------
    def install(self) -> None:
        hooks = {
            "realalg.RealAlgebraic.interval": self._interval_hook,
            "lp.maximize": self._maximize_hook,
        }
        for target in TARGETS:
            modname, *path = target.split(".")
            module = importlib.import_module(f"{PACKAGE}.{modname}")
            if len(path) == 2:
                cls = getattr(module, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(target, raw.__func__, hooks.get(target)))
                else:
                    wrapped = self._wrap(target, raw, hooks.get(target))
                setattr(cls, path[1], wrapped)
                continue
            original = getattr(module, path[0])
            wrapped = self._wrap(target, original, hooks.get(target))
            for name, mod in list(sys.modules.items()):
                if mod is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # -- results -------------------------------------------------------------------
    def metrics(self) -> dict[str, float]:
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += self.span_end[i] - self.span_start[i]
        out: dict[str, float] = {}
        for target in TARGETS:
            for suffix in ("calls", "total_s", "self_s"):
                out[f"{target}.{suffix}"] = 0
        for i in range(n):
            name = self.names[self.span_name[i]]
            if name == "op":
                continue
            dur = self.span_end[i] - self.span_start[i]
            out[f"{name}.calls"] += 1
            out[f"{name}.total_s"] += dur
            out[f"{name}.self_s"] += dur - child[i]
        for prefix, (modname, attr) in CACHES.items():
            info = getattr(importlib.import_module(f"{PACKAGE}.{modname}"), attr).cache_info()
            out[f"{prefix}.hits"] = info.hits
            out[f"{prefix}.misses"] = info.misses
        out.update(self.maxima)
        return out
