"""The benchmark tracer finds every function it wraps.

``bench/tracing.py`` swaps nerprune module attributes by name; a renamed
or removed function would only surface as a crash of a traced benchmark
run. This loads the tracer's table and resolves each entry.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return [(entry[0], entry[1]) for entry in module.TRACED]


@pytest.mark.parametrize("module, attr", _traced())
def test_traced_function_exists(module, attr):
    target = getattr(importlib.import_module(f"nerprune.{module}"), attr, None)
    assert callable(target), f"nerprune.{module}.{attr} is not a function"
