"""Every name the benchmark's tracer wraps still exists in intval.

perfbench/trace.py replaces the functions, methods and constructors named
in its SPANS and COUNTERS tables, and every law family in laws.FAMILIES.
A rename or deletion in intval would break the traced benchmark run, so
the tables are read here, as text, and each name is resolved the way the
tracer resolves it.
"""

import ast
import importlib
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _table(name):
    for node in ast.parse(TRACE.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} is not defined in {TRACE.name}")


WRAPPED = _table("SPANS") + _table("COUNTERS")


@pytest.mark.parametrize("module_name, path, metric", WRAPPED, ids=[m for _, _, m in WRAPPED])
def test_wrapped_name_resolves(module_name, path, metric):
    module = importlib.import_module(f"intval.{module_name}")
    if "." in path:
        cls_name, attr = path.split(".")
        # the tracer wraps the attribute found in the class's own namespace
        assert callable(vars(getattr(module, cls_name)).get(attr))
    else:
        assert callable(getattr(module, path))


def test_law_families_are_registered():
    from intval import laws

    assert laws.FAMILIES and all(callable(fn) for fn in laws.FAMILIES.values())
