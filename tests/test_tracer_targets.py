"""The benchmark's tracer wraps confusionkit functions by name.

A renamed or deleted target would only surface when the benchmark runs
with tracing on; this check makes it a test failure instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(mod, fn) for mod, fns in tracer.TARGETS.items() for fn in fns]


@pytest.mark.parametrize("module,name", _targets())
def test_traced_function_exists(module, name):
    mod = importlib.import_module(f"confusionkit.{module}")
    assert callable(getattr(mod, name, None)), f"confusionkit.{module}.{name}"
