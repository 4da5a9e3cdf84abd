"""The benchmark's traced names must exist in the package, the benchmark
process must hold their modules, one pass of its calls must call each of
them, and the CLI's start-up must load only what every command needs.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair of its
``TRACED`` table by name and looks each module up in ``sys.modules``, so
renaming or removing one of them breaks ``perfbench/run.py --trace 1``,
and so does a traced module that no import of ``run.py`` loads.  Each
command imports the modules it runs, so ``import intdigraph.cli`` loads
only the modules below.  The table is read with ``ast``, so this test
process does not import the benchmark; a child interpreter does.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPANS = ROOT / "perfbench" / "spans.py"
# What ``import intdigraph.cli`` loads: ``independent`` only because no
# import of the benchmark does (see the comment above it in ``cli.py``).
CLI_START_UP = {"intdigraph", "intdigraph.cli", "intdigraph.errors", "intdigraph.graphs",
                "intdigraph.independent"}


def traced_table() -> dict:
    """``TRACED``: (module, attribute) -> span name."""
    tree = ast.parse(SPANS.read_text(), filename=str(SPANS))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"no TRACED table in {SPANS}")


def test_every_traced_name_resolves():
    pairs = traced_table()
    assert pairs
    for module, attribute in pairs:
        obj = importlib.import_module(f"intdigraph.{module}")
        for part in attribute.split("."):
            assert hasattr(obj, part), f"intdigraph.{module}.{attribute} is missing"
            obj = getattr(obj, part)
        assert callable(obj), f"intdigraph.{module}.{attribute} is not callable"


def run_child(program: str, *paths: Path) -> str:
    """The stdout of a fresh interpreter running ``program``, with ``src/``
    and ``paths`` on its module path."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, (ROOT / "src", *paths))))
    return subprocess.run([sys.executable, "-c", program],
                          capture_output=True, text=True, check=True, env=env).stdout


def loaded_after(program: str, *paths: Path) -> set[str]:
    """The modules a fresh interpreter holds after running ``program``."""
    return set(run_child(f"{program}\nimport sys\nprint('\\n'.join(sys.modules))",
                         *paths).split())


def test_the_benchmark_process_holds_every_traced_module():
    """``perfbench/run.py`` imports ``gate``, ``spans`` and ``workloads``;
    after them every traced module is loaded and the tracer installs and
    uninstalls."""
    loaded = loaded_after("import gate, spans, workloads\n"
                          "with spans.Tracer().installed():\n"
                          "    pass", ROOT / "perfbench")
    for module, _ in traced_table():
        assert f"intdigraph.{module}" in loaded


def test_one_benchmark_pass_fires_every_traced_name(tmp_path):
    """A child interpreter runs every call of ``workloads.CALLS`` on the
    smoke sizes under the tracer; each ``TRACED`` name records a span, so
    no traced layer has dropped off the path the benchmark times."""
    program = (
        "import pathlib, spans, workloads\n"
        f"inst = workloads.build(pathlib.Path({str(tmp_path)!r}), workloads.SMOKE_SIZES, 1)\n"
        "tracer = spans.Tracer()\n"
        "for name, args in workloads.CALLS:\n"
        "    code, out, _ = spans.run_main(inst.argv(args), tracer, name)\n"
        "    assert code == 0, (name, code, out)\n"
        "print('\\n'.join({span[0] for span in tracer.spans}))\n")
    fired = set(run_child(program, ROOT / "perfbench").split())
    names = set(traced_table().values())
    assert names and names <= fired, f"never fired: {sorted(names - fired)}"


def test_cli_start_up_loads_only_what_every_command_needs():
    loaded = loaded_after("import intdigraph.cli")
    assert {m for m in loaded if m.split(".")[0] == "intdigraph"} == CLI_START_UP
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
    assert not hasattr(intdigraph, "Bigraph")  # an interval bigraph is columns only
