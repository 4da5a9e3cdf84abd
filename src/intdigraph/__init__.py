"""Kernels, domination and independent sets in reflexive interval digraphs.

The package root imports no submodule: each exported name is loaded from
its module on first use, so ``import intdigraph.cli`` loads only what the
CLI calls and the brute-force oracles load only when asked for.
"""

import importlib

_EXPORTS = {
    "graphs": ("Certificate", "Digraph", "UndirectedGraph", "underlying_undirected",
               "verify_set"),
    "intervals": ("Interval", "IntervalRep", "NormalizedRep",
                  "extract_duf_ordering", "is_reflexive", "normalize",
                  "realize_digraph", "set_is_absorbing", "set_is_dominating",
                  "set_is_independent", "verify_representation"),
    "ordering": ("Ordering", "StructureWitness", "SuffixTable",
                 "build_representation", "check_reflexive_interval_ordering",
                 "duf_witness", "find_forbidden_structure",
                 "verify_cocomparability_ordering", "verify_duf_ordering"),
    "kernels": ("compute_kernel_table", "kernel_linear",
                "min_independent_dominating_cocomp", "optimal_kernel_adjusted",
                "optimal_kernel_duf", "z_sequence"),
    "domination": ("IntervalBigraphRep", "build_red_blue_state",
                   "min_absorbing_reflexive", "min_dominating_reflexive",
                   "red_blue_min_dominating"),
    "independent": ("chain_dag", "max_independent_duf"),
    "pointpoint": ("AntiWalkWitness", "PointRep", "SubdivisionMap",
                   "find_anti_directed_walk", "k_subdivision", "lift_set",
                   "project_set", "recognize_point_point"),
    "oracle": ("DEFAULT_BUDGET", "OracleBudget", "brute_anti_directed_walk",
               "brute_kernel", "brute_max_independent", "brute_min_absorbing",
               "brute_ordering_search", "brute_red_blue", "find_induced_k33"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    """Load an exported name, or a submodule, on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    else:
        try:
            value = importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as exc:
            if exc.name != f"{__name__}.{name}":
                raise
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
