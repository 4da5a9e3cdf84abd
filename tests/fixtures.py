"""Small named instances that separate the digraph classes.

Each function builds a fresh object, so callers may not worry about
sharing.  These are the standard counterexamples used across the test
suite.  :func:`splitting_bigraph`, which the library no longer calls,
builds the splitting bigraph of a digraph for the tests and references;
:func:`reverse`, :func:`induced_subgraph`, :func:`symmetric_digraph` and
:func:`structure_present`, likewise uncalled by the library, derive other
instances from a graph or re-check a forbidden-structure witness.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional

from intdigraph.domination import IntervalBigraphRep
from intdigraph.errors import DimensionMismatch, InvalidVertex
from intdigraph.graphs import Digraph, UndirectedGraph
from intdigraph.intervals import Interval, IntervalRep, normalize, verify_representation
from intdigraph.ordering import Ordering, StructureWitness, _pattern_holds


def directed_triangle() -> Digraph:
    """A 3-cycle of arcs: a point-point digraph with no DUF-ordering."""
    return Digraph(3, [(0, 1), (1, 2), (2, 0)])


def symmetric_triangle() -> Digraph:
    """All six arcs on three vertices: DUF under any permutation, yet not
    an interval digraph (its splitting bigraph is a six-cycle)."""
    return Digraph(3, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 0), (0, 2)])


def no_kernel_duf() -> tuple[Digraph, Ordering]:
    """A semicomplete four-vertex DUF-digraph without a kernel.

    Every vertex has an out-neighbour that is not an in-neighbour, so no
    single vertex absorbs, and adjacency of all pairs forbids larger
    independent sets.  Returned with its DUF-ordering (0, 1, 2, 3).
    """
    g = Digraph(4, [(0, 1), (1, 0), (2, 0), (0, 3), (1, 2), (3, 1), (2, 3), (3, 2)])
    return g, Ordering((0, 1, 2, 3))


def oriented_k33_with_loops() -> Digraph:
    """Complete bipartite 3+3 oriented one way, loops everywhere: a
    reflexive DUF-digraph that is not a reflexive interval digraph."""
    edges = [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)]
    return Digraph(6, edges, loops=range(6))


def anti_walk_example() -> Digraph:
    """Four vertices whose arcs (0,1), (2,1), (2,3) with (0,3) absent form
    an anti-directed walk, so this is not a point-point digraph."""
    return Digraph(4, [(0, 1), (0, 2), (1, 2), (2, 1), (2, 3)])


def in_star_adjusted() -> tuple[Digraph, IntervalRep]:
    """Three sources all pointing into vertex 0, loops everywhere.

    Shipped with a representation whose intervals share left endpoints per
    vertex; the unique minimum kernel is {0}.
    """
    g = Digraph(4, [(1, 0), (2, 0), (3, 0)], loops=range(4))
    half = Fraction(1, 2)
    pairs = [(Interval(0, half), Interval(0, 10))]
    for v in (1, 2, 3):
        pairs.append((Interval(v, v + half), Interval(v, v)))
    return g, IntervalRep(pairs)


def two_vertex_example_rep() -> IntervalRep:
    """Two reflexive vertices with the single arc (0, 1); its unique
    kernel is {1} and its minimum dominating set is {0}."""
    return IntervalRep([
        (Interval(0, 2), Interval(1, 3)),
        (Interval(4, 6), Interval(Fraction(3, 2), 5)),
    ])


def reflexive_path(n: int) -> tuple[Digraph, Ordering]:
    """Arcs i -> i+1 with loops everywhere and the natural ordering."""
    g = Digraph(n, [(i, i + 1) for i in range(n - 1)], loops=range(n))
    return g, Ordering(range(n))


def splitting_bigraph(g: Digraph, rep: Optional[IntervalRep] = None
                      ) -> tuple[tuple[tuple, tuple], Optional[IntervalBigraphRep]]:
    """Left/right split of ``g``; self-loops become cross edges too.

    Returns the split's sorted adjacency lists ``(adj_a, adj_b)``: left copy
    u meets the right copies of its out-neighbours, right copy v the left
    copies of its in-neighbours.  With a representation of ``g``, also
    returns the induced interval bigraph model (S intervals on the left
    part, T on the right).
    """
    adj_a = tuple(tuple(sorted(vs + (u,))) if g.loops[u] else vs
                  for u, vs in enumerate(g.out_adj))
    adj_b = tuple(tuple(sorted(us + (v,))) if g.loops[v] else us
                  for v, us in enumerate(g.in_adj))
    brep = None
    if rep is not None:
        rep = normalize(rep)
        if rep.n != g.n:
            raise DimensionMismatch(f"representation has {rep.n} vertices, digraph {g.n}")
        if not verify_representation(rep, g):
            raise DimensionMismatch("representation does not realize the digraph")
        brep = IntervalBigraphRep(zip(rep.ls, rep.rs), zip(rep.lt, rep.rt))
    return (adj_a, adj_b), brep


def reverse(g: Digraph) -> Digraph:
    """The digraph with every edge (u, v) replaced by (v, u); loops kept."""
    return Digraph(g.n, ((v, u) for (u, v) in g.edges()), g.loop_vertices())


def induced_subgraph(g: Digraph, s: Iterable[int]) -> tuple[Digraph, dict[int, int]]:
    """Subgraph induced by ``s`` and the relabel map old->new.

    New ids follow the sorted order of ``s``, so the map is a bijection
    onto ``[0, |s|)``.
    """
    svs = sorted(set(s))
    for v in svs:
        if not (0 <= v < g.n):
            raise InvalidVertex(f"vertex {v} out of range for n={g.n}")
    relabel = {v: i for i, v in enumerate(svs)}
    edges = [(relabel[u], relabel[v]) for u in svs for v in g.out_adj[u]
             if v in relabel]
    loops = [relabel[v] for v in svs if g.loops[v]]
    return Digraph(len(svs), edges, loops), relabel


def symmetric_digraph(h: UndirectedGraph) -> Digraph:
    """Replace every undirected edge by a pair of opposite arcs."""
    return Digraph(h.n, ((u, v) for u, vs in enumerate(h.adj) for v in vs))


def structure_present(g: Digraph, witness: StructureWitness) -> bool:
    """Re-check a witness's cited edges and non-edges against ``g``."""
    va, vb, vc, vd = witness.vertices
    return _pattern_holds(g, witness.kind, va, vb, vc, vd)
