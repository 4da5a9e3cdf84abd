"""The benchmark's traced names must exist in the package.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair of its
``TRACED`` table by name, so renaming or removing one of them breaks
``perfbench/run.py --trace 1``.  The table is read with ``ast``, so this
test does not import the benchmark.
"""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def traced_pairs():
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return list(ast.literal_eval(node.value))
    raise LookupError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    pairs = traced_pairs()
    assert pairs
    for module, attribute in pairs:
        obj = importlib.import_module(f"intdigraph.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"intdigraph.{module}.{attribute} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"intdigraph.{module}.{attribute} is not callable"
