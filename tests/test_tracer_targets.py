"""The traced benchmark run wraps package functions by name: every name it
lists must still resolve, or `perfbench/run.py --trace 1` breaks."""

import importlib.util
import operator
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _tracer()


@pytest.mark.parametrize("target", tracer.TARGETS)
def test_trace_target_resolves(target):
    module, attr = target.split(".", 1)
    mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert callable(operator.attrgetter(attr)(mod))


@pytest.mark.parametrize("metric, where", sorted(tracer.CACHES.items()))
def test_trace_cache_resolves(metric, where):
    module, attr = where
    mod = importlib.import_module(f"{tracer.PACKAGE}.{module}")
    assert callable(getattr(getattr(mod, attr), "cache_info", None)), metric
