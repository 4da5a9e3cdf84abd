"""Maximum (weighted) independent set on DUF-ordered digraphs.

Under a directed umbrella-free ordering, non-adjacency of the underlying
undirected graph is transitive along the order, so independent sets are
exactly the chains of the complement relation restricted to increasing
positions.  A right-to-left longest-chain dynamic program therefore finds
a maximum-weight independent set in O(n^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import NotDufOrdered
from .graphs import Certificate, Digraph, check_weights, verify_set
from .ordering import Ordering, verify_duf_ordering


@dataclass(frozen=True)
class ChainDag:
    """Longest-chain values over the non-adjacency relation in order.

    ``values[p]`` is the best total weight of an independent set starting
    at position p and using positions >= p; ``succ[p]`` the next position
    on one such set (None at chain ends).
    """

    ordering: Ordering
    values: tuple[int, ...]
    succ: tuple[Optional[int], ...]

    def chain_positions(self, p: int) -> list[int]:
        out = [p]
        while self.succ[out[-1]] is not None:
            out.append(self.succ[out[-1]])
        return out


def chain_dag(g: Digraph, ordering: Ordering,
              weights: Optional[Iterable[int]] = None) -> ChainDag:
    """Fill the chain table; assumes the ordering is already verified DUF."""
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
    return ChainDag(ordering=ordering, values=tuple(values), succ=tuple(succ))


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
    dag = chain_dag(g, ordering, weights)
    best_p = 0
    for p in range(1, g.n):
        if dag.values[p] > dag.values[best_p]:
            best_p = p
    vertices = tuple(sorted(ordering.perm[q] for q in dag.chain_positions(best_p)))
    cert = verify_set(g, vertices, "independent")
    if not cert.all_checks_pass():
        raise RuntimeError(f"chain DP produced a dependent set: {cert.checks}")
    return Certificate(vertices=vertices, checks=cert.checks, algorithm="chain-dp",
                       optimal=True, objective="max", value=dag.values[best_p])
