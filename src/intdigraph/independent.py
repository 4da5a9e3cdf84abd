"""Maximum (weighted) independent set on DUF-ordered digraphs.

Under a directed umbrella-free ordering, non-adjacency of the underlying
undirected graph is transitive along the order, so independent sets are
exactly the chains of the complement relation restricted to increasing
positions.  A right-to-left longest-chain dynamic program therefore finds
a maximum-weight independent set, as a 'max'
:class:`~intdigraph.ordering.SuffixTable` where any position may start.
Ranking the positions above p by value, it probes at most deg(p) + 1 of
them: O(n + m) probes and O(n log n) comparisons.  The ranked list is a
``bisect.insort`` list in rising value, where each insert moves only the
neighbours of the new position ranked after it: O(m) words in total, so
the fill is O(m + n log n).
"""

from __future__ import annotations

from bisect import insort
from typing import Iterable, Optional

from .graphs import Certificate, Digraph, check_weights


def chain_dag(ordering: Ordering, placed,
              weights: Optional[Iterable[int]] = None) -> SuffixTable:
    """Fill the chain table from ``placed``, the caller's
    :meth:`~intdigraph.ordering.Ordering.place` of the digraph under
    ``ordering``, which the caller has already verified DUF.

    A chain continues only on the first best tail of positive weight.  The
    positions above p are kept ranked by (value, -position), encoded as
    the int value * n + (n - 1 - position), in rising order; the last
    ranked position not adjacent to p is that tail, unless its value is 0.
    With the neighbours of p marked, each p probes at most deg(p) + 1
    entries from the end.  Every position above p not adjacent to it has a
    value of at most ``values[p]`` and a larger position, so only
    neighbours of p rank after it and each insert moves at most deg(p)
    entries.
    """
    from .ordering import SuffixTable  # deferred: every CLI command loads this module
    n = ordering.n
    perm = ordering.perm
    w = check_weights(weights, n)
    out_pos, in_pos = placed
    values = [0] * n
    succ: list[Optional[int]] = [None] * n
    ranked: list[int] = []
    mark = [-1] * n  # mark[q] == p when q is adjacent to p
    for p in range(n - 1, -1, -1):
        for q in out_pos[p]:
            mark[q] = p
        for q in in_pos[p]:
            mark[q] = p
        best_val = 0
        best_q: Optional[int] = None
        for key in reversed(ranked):
            q = n - 1 - key % n
            if values[q] == 0:
                break
            if mark[q] != p:
                best_val, best_q = values[q], q
                break
        values[p] = w[perm[p]] + best_val
        succ[p] = best_q
        insort(ranked, values[p] * n + n - 1 - p)
    return SuffixTable(ordering, "max", tuple(values), tuple(succ), tuple(range(n)))


def max_independent_duf(g: Digraph, ordering: Ordering,
                        weights: Optional[Iterable[int]] = None) -> Certificate:
    """Maximum-weight independent set of a DUF-ordered digraph; the
    ordering is re-verified on the placement the fill reads."""
    from .ordering import duf_placement  # deferred, as in chain_dag
    table = chain_dag(ordering, duf_placement(g, ordering), weights)
    return table.certify(g, "independent", "chain-dp")
