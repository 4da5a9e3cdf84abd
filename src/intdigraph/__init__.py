"""Kernels, domination and independent sets in reflexive interval digraphs."""

from .graphs import (Certificate, Digraph, UndirectedGraph, induced_subgraph,
                     reverse, symmetric_digraph, underlying_undirected,
                     verify_set)
from .intervals import (Interval, IntervalRep, NormalizedRep,
                        extract_duf_ordering, is_reflexive, normalize,
                        realize_digraph, set_is_absorbing, set_is_dominating,
                        set_is_independent, verify_representation)
from .ordering import (Ordering, StructureWitness, SuffixTable,
                       build_representation, check_reflexive_interval_ordering,
                       find_forbidden_structure, structure_present,
                       verify_cocomparability_ordering, verify_duf_ordering)
from .kernels import (ZSequence, compute_kernel_table,
                      kernel_linear, min_independent_dominating_cocomp,
                      optimal_kernel_adjusted, optimal_kernel_duf, z_sequence)
from .domination import (Bigraph, IntervalBigraphRep, RedBlueState,
                         build_red_blue_state, min_absorbing_reflexive,
                         min_dominating_reflexive, red_blue_min_dominating,
                         splitting_bigraph)
from .independent import chain_dag, max_independent_duf
from .pointpoint import (AntiWalkWitness, PointRep, SubdivisionMap,
                         find_anti_directed_walk, k_subdivision, lift_set,
                         project_set, recognize_point_point)
from .oracle import (DEFAULT_BUDGET, OracleBudget, brute_kernel,
                     brute_max_independent, brute_min_absorbing,
                     brute_ordering_search, brute_red_blue, find_induced_k33)

__all__ = [
    "Certificate", "Digraph", "UndirectedGraph", "induced_subgraph",
    "reverse", "symmetric_digraph", "underlying_undirected", "verify_set",
    "Interval", "IntervalRep", "NormalizedRep", "extract_duf_ordering",
    "is_reflexive", "normalize", "realize_digraph", "set_is_absorbing",
    "set_is_dominating", "set_is_independent", "verify_representation",
    "Ordering", "StructureWitness", "SuffixTable", "build_representation",
    "check_reflexive_interval_ordering", "find_forbidden_structure",
    "structure_present", "verify_cocomparability_ordering",
    "verify_duf_ordering",
    "ZSequence", "compute_kernel_table", "kernel_linear",
    "min_independent_dominating_cocomp", "optimal_kernel_adjusted",
    "optimal_kernel_duf", "z_sequence",
    "Bigraph", "IntervalBigraphRep", "RedBlueState", "build_red_blue_state",
    "min_absorbing_reflexive", "min_dominating_reflexive",
    "red_blue_min_dominating", "splitting_bigraph",
    "chain_dag", "max_independent_duf",
    "AntiWalkWitness", "PointRep", "SubdivisionMap", "find_anti_directed_walk",
    "k_subdivision", "lift_set", "project_set", "recognize_point_point",
    "DEFAULT_BUDGET", "OracleBudget", "brute_kernel", "brute_max_independent",
    "brute_min_absorbing", "brute_ordering_search", "brute_red_blue",
    "find_induced_k33",
]
