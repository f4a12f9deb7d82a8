"""The benchmark finds everything of nerprune it uses.

``bench/tracing.py`` swaps nerprune module attributes by name, and the
rest of the harness reaches into nerprune's modules by attribute; a
renamed or removed name would only surface as a crash of a benchmark run.
This resolves each entry of the tracer's table and each attribute chain
the harness's sources take from a nerprune module.
"""

import ast
import functools
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
TRACING = BENCH / "tracing.py"


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


def _nerprune_chains(path):
    """Each longest attribute chain in path's source on a name that an
    import binds to nerprune or to one of its modules or members, as (the
    dotted name bound, the chain's attribute names)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.partition(".")[0] == "nerprune":
                    bound[alias.asname or "nerprune"] = (
                        alias.name if alias.asname else "nerprune")
        elif (isinstance(node, ast.ImportFrom)
              and (node.module or "").partition(".")[0] == "nerprune"):
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    chains = set()

    class Visitor(ast.NodeVisitor):
        def visit_Attribute(self, node):
            attrs, value = [], node
            while isinstance(value, ast.Attribute):
                attrs.append(value.attr)
                value = value.value
            if isinstance(value, ast.Name) and value.id in bound:
                chains.add((bound[value.id], tuple(reversed(attrs))))
            else:
                self.generic_visit(node)

    Visitor().visit(tree)
    return chains


def _resolve(dotted):
    """The object a dotted name under nerprune names."""
    module, _, member = dotted.rpartition(".")
    try:
        return importlib.import_module(dotted)
    except ModuleNotFoundError:
        return getattr(importlib.import_module(module), member)


BENCH_CHAINS = sorted({(name, attrs) for path in sorted(BENCH.glob("*.py"))
                       for name, attrs in _nerprune_chains(path)})


def test_the_bench_reaches_into_nerprune():
    assert len(BENCH_CHAINS) >= 20


@pytest.mark.parametrize("name, attrs", BENCH_CHAINS,
                         ids=[".".join((n, *a)) for n, a in BENCH_CHAINS])
def test_bench_attribute_chain_resolves(name, attrs):
    target = functools.reduce(getattr, attrs, _resolve(name))
    assert target is not None
