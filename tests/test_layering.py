"""The ordering route imports no interval code.

The paper's DUF dynamic programs read a digraph and an ordering; only the
sweeps and the representation builders read intervals.  Each module
imports at module level only what every command that loads it runs, so
the import graph below is read from the source with ``ast``: a
module-level ``from .x import`` is an edge taken whenever the module is
imported, one inside a function only when that function runs.  One test
runs the DUF solvers in a fresh interpreter and checks what it loaded.
"""

import ast

import pytest

from test_traced_names import ROOT, loaded_after

PACKAGE = ROOT / "src" / "intdigraph"


def _targets(node: ast.ImportFrom) -> set[str]:
    """The package modules a relative ``from`` import names."""
    if node.level != 1:
        return set()
    if node.module is not None:
        return {node.module.split(".")[0]}
    return {alias.name for alias in node.names}


def import_edges() -> dict[str, tuple[set[str], set[str]]]:
    """module -> (its module-level edges, its edges inside functions)."""
    edges = {}
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        top = set().union(*(_targets(n) for n in tree.body if isinstance(n, ast.ImportFrom)))
        inner = set().union(*(_targets(n) for n in ast.walk(tree)
                              if isinstance(n, ast.ImportFrom))) - top
        edges[path.stem] = (top, inner)
    return edges


EDGES = import_edges()


def loaded_with(module: str) -> set[str]:
    """Every package module that ``import intdigraph.<module>`` loads."""
    seen, todo = set(), [module]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(EDGES[m][0])
    return seen


@pytest.mark.parametrize("module", ["ordering", "kernels", "independent", "fileio"])
def test_no_module_level_path_to_intervals(module):
    assert "intervals" not in loaded_with(module)


@pytest.mark.parametrize("module, target", [
    ("kernels", "ordering"), ("independent", "ordering"),
    ("fileio", "ordering"), ("fileio", "domination"), ("oracle", "domination"),
    ("cli", "tooling")])
def test_deferred_edges_stay_deferred(module, target):
    assert target not in loaded_with(module)
    assert target in EDGES[module][1]


def test_duf_solvers_load_no_interval_code():
    loaded = loaded_after(
        "from intdigraph.graphs import Digraph, underlying_undirected\n"
        "from intdigraph.independent import max_independent_duf\n"
        "from intdigraph.kernels import min_independent_dominating_cocomp, "
        "optimal_kernel_duf\n"
        "from intdigraph.ordering import (Ordering, verify_cocomparability_ordering, "
        "verify_duf_ordering)\n"
        "g = Digraph(4, [(0, 1), (1, 2), (2, 3), (1, 0)], loops=range(4))\n"
        "h, o = underlying_undirected(g), Ordering(range(4))\n"
        "assert verify_duf_ordering(g, o) is None\n"
        "assert verify_cocomparability_ordering(h, o) is None\n"
        "assert optimal_kernel_duf(g, o, 'min') is not None\n"
        "assert optimal_kernel_duf(g, o, 'max', [1, 2, 3, 4]) is not None\n"
        "max_independent_duf(g, o)\n"
        "min_independent_dominating_cocomp(h, o)")
    assert {"intdigraph.ordering", "intdigraph.kernels"} <= loaded
    assert "intdigraph.intervals" not in loaded
