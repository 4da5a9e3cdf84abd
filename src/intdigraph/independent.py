"""Maximum (weighted) independent set on DUF-ordered digraphs.

Under a directed umbrella-free ordering, non-adjacency of the underlying
undirected graph is transitive along the order, so independent sets are
exactly the chains of the complement relation restricted to increasing
positions.  A right-to-left longest-chain dynamic program therefore finds
a maximum-weight independent set in O(n^2), as a 'max'
:class:`~intdigraph.ordering.SuffixTable` where any position may start.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .errors import NotDufOrdered
from .graphs import Certificate, Digraph, check_weights
from .ordering import Ordering, SuffixTable, verify_duf_ordering


def chain_dag(g: Digraph, ordering: Ordering,
              weights: Optional[Iterable[int]] = None) -> SuffixTable:
    """Fill the chain table; assumes the ordering is already verified DUF.

    A chain continues only on the first best tail of positive weight.
    """
    n = g.n
    perm, pos = ordering.perm, ordering.positions
    w = check_weights(weights, n)
    adj_pos = [set() for _ in range(n)]
    for p in range(n):
        v = perm[p]
        for u in g.out_adj[v]:
            adj_pos[p].add(pos[u])
            adj_pos[pos[u]].add(p)
    values = [0] * n
    succ: list[Optional[int]] = [None] * n
    for p in range(n - 1, -1, -1):
        best_val = 0
        best_q: Optional[int] = None
        for q in range(p + 1, n):
            if q in adj_pos[p]:
                continue
            if values[q] > best_val:
                best_val, best_q = values[q], q
        values[p] = w[perm[p]] + best_val
        succ[p] = best_q
    return SuffixTable(ordering, "max", tuple(values), tuple(succ), tuple(range(n)))


def max_independent_duf(g: Digraph, ordering: Ordering,
                        weights: Optional[Iterable[int]] = None) -> Certificate:
    """Maximum-weight independent set of a DUF-ordered digraph."""
    witness = verify_duf_ordering(g, ordering)
    if witness is not None:
        raise NotDufOrdered(witness)
    if g.n == 0:
        return Certificate(vertices=(), checks={"independent": True},
                           algorithm="chain-dp", optimal=True, objective="max",
                           value=0)
    return chain_dag(g, ordering, weights).certify(g, "independent", "chain-dp")
