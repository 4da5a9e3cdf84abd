"""The benchmark's traced names must exist in the package, and the CLI's
start-up must load them and nothing it does not call.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair of its
``TRACED`` table by name, so renaming or removing one of them breaks
``perfbench/run.py --trace 1``, and so does a traced module that
``import intdigraph.cli`` no longer loads.  The table is read with
``ast``, so this test does not import the benchmark.
"""

import ast
import importlib
import os
import subprocess
import sys
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


def loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(SPANS.parents[1] / "src"))
    out = subprocess.run(
        [sys.executable, "-c", f"import sys; {statement}; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True, env=env).stdout
    return set(out.split())


def test_cli_start_up_loads_the_traced_modules_and_nothing_it_does_not_call():
    loaded = loaded_after("import intdigraph.cli")
    for module, _ in traced_pairs():
        assert f"intdigraph.{module}" in loaded
    for module in ("dataclasses", "inspect", "intdigraph.oracle",
                   "intdigraph.generators", "fractions", "decimal"):
        assert module not in loaded, f"import intdigraph.cli loads {module}"


def test_package_root_loads_no_submodule():
    loaded = loaded_after("import intdigraph")
    assert "intdigraph" in loaded
    assert not [m for m in loaded if m.startswith("intdigraph.")]


def test_every_exported_name_resolves():
    import intdigraph
    namespace = {}
    exec("from intdigraph import *", namespace)
    for name in intdigraph.__all__:
        assert namespace[name] is getattr(intdigraph, name)
    assert intdigraph.oracle.brute_kernel is intdigraph.brute_kernel
