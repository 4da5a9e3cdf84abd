"""The quadratic suffix-table fills, kept as the differential reference.

:func:`compute_kernel_table` scans every position above i once per i with
a stamp array; :func:`chain_dag` scans every position above p once per p.
Both are Theta(n^2) on any input.  They return the same
:class:`~intdigraph.ordering.SuffixTable` as the library's fills, which
``test_dp_reference.py`` checks on random inputs.

:func:`chain_dag_insort` is the former ranked fill, kept as the reference
for its tie rule: it ranks by (-value, position) in rising order and
probes from the front, so each insert may move every ranked entry.

:func:`optimal_kernel_adjusted` is the former O(n^2) solver for adjusted
representations.  It fills the table in the l(S) order from the
per-position maxima of :func:`adjusted_maxima` and one suffix-minimum
array; the library now runs the general DP there.  :func:`placed_maxima`
is the older fill of those maxima, read off both full position lists of
:meth:`~intdigraph.ordering.Ordering.place`.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import accumulate
from typing import Iterable, Optional

from intdigraph.errors import NotAdjusted
from intdigraph.graphs import Certificate, Digraph, check_weights
from intdigraph.intervals import (IntervalRep, NormalizedRep, normalize, rank_order,
                                  realize_digraph)
from intdigraph.kernels import _check_objective
from intdigraph.ordering import Ordering, SuffixTable, argbest


def compute_kernel_table(g: Digraph, ordering: Ordering, objective: str = "min",
                         weights: Optional[Iterable[int]] = None) -> SuffixTable:
    """Fill the suffix table; assumes ``ordering`` is already verified DUF.

    For each position i the admissible continuations are the non-neighbours
    j above i such that every position strictly between is an in-neighbour
    of i or of j; they are found with one stamped scan per i, O(n + m) each.
    """
    _check_objective(objective)
    n = g.n
    perm, pos = ordering.perm, ordering.positions
    w = check_weights(weights, n)
    wpos = [w[perm[p]] for p in range(n)]
    in_pos = [sorted(pos[u] for u in g.in_adj[perm[p]]) for p in range(n)]
    in_pos_set = [set(ps) for ps in in_pos]
    out_pos_set = [set(pos[u] for u in g.out_adj[perm[p]]) for p in range(n)]

    values: list[Optional[int]] = [None] * n
    succ: list[Optional[int]] = [None] * n
    stamp = [-1] * n
    lindex = [0] * n
    for i in range(n - 1, -1, -1):
        in_above = len(in_pos[i]) - bisect_right(in_pos[i], i)
        if in_above == n - 1 - i:
            values[i] = wpos[i]
            continue
        chain = []
        for j in range(i + 1, n):
            if j not in in_pos_set[i]:
                stamp[j] = i
                lindex[j] = len(chain)
                chain.append(j)
        admissible = []
        for idx, j in enumerate(chain):
            if j in out_pos_set[i] or values[j] is None:
                continue
            covered = 0
            for u in in_pos[j]:
                if stamp[u] == i and lindex[u] < idx:
                    covered += 1
            if covered == idx:
                admissible.append(j)
        best_j = argbest(values, admissible, objective)
        if best_j is not None:
            values[i] = wpos[i] + values[best_j]
            succ[i] = best_j

    candidates = tuple(p for p in range(n) if bisect_left(in_pos[p], p) == p)
    return SuffixTable(ordering, objective, tuple(values), tuple(succ), candidates)


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


def chain_dag_insort(g: Digraph, ordering: Ordering,
              weights: Optional[Iterable[int]] = None) -> SuffixTable:
    """Fill the chain table; assumes the ordering is already verified DUF.

    A chain continues only on the first best tail of positive weight.  The
    positions above p are kept ranked by (-value, position), encoded as the
    int -value * n + position; the first ranked position not adjacent to p
    is that tail, unless its value is 0.  With the neighbours of p marked,
    each p probes at most deg(p) + 1 entries.
    """
    n = g.n
    perm = ordering.perm
    w = check_weights(weights, n)
    out_pos, in_pos = ordering.place(g)
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
        for key in ranked:
            q = key % n
            if values[q] == 0:
                break
            if mark[q] != p:
                best_val, best_q = values[q], q
                break
        values[p] = w[perm[p]] + best_val
        succ[p] = best_q
        insort(ranked, p - values[p] * n)
    return SuffixTable(ordering, "max", tuple(values), tuple(succ), tuple(range(n)))


def placed_maxima(g: Digraph, ordering: Ordering) -> tuple[list[int], list[int]]:
    """Per position, the highest out- (in-) neighbour position, or itself."""
    out_pos, in_pos = ordering.place(g)
    # self-loops count: reflexivity makes every vertex its own neighbour here
    max_out = [max(p, nbrs[-1]) if nbrs else p for p, nbrs in enumerate(out_pos)]
    max_in = [max(p, nbrs[-1]) if nbrs else p for p, nbrs in enumerate(in_pos)]
    return max_out, max_in


def adjusted_maxima(rep: NormalizedRep, perm) -> tuple[list[int], list[int]]:
    """Per position of ``perm``, the l(S) order of the adjusted ``rep``, the
    highest position that is an out- (in-) neighbour or the position itself.

    Normalizing ranks l(T_v) right after l(S_v) (one coordinate, both left,
    one vertex, S first; swapped() right before), so for u above v both left
    ranks of u exceed both of v's: u is an out- (in-) neighbour of v iff
    l(S_u) < r(S_v) (r(T_v)), which also holds for v and all below it:
    a bisection of the l(S) ranks in ``perm`` order, which rise."""
    lefts = list(map(rep.ls.__getitem__, perm))
    return ([bisect_left(lefts, rep.rs[v]) - 1 for v in perm],
            [bisect_left(lefts, rep.rt[v]) - 1 for v in perm])


def optimal_kernel_adjusted(rep: IntervalRep, objective: str = "min") -> Optional[Certificate]:
    """Optimal kernel when every vertex's intervals share a left endpoint.

    Orders vertices by the common left endpoints; upper neighbourhoods are
    then contiguous, so the continuation sets collapse to index ranges
    computed from per-vertex maxima and one suffix-minimum array.
    """
    _check_objective(objective)
    rep = normalize(rep)
    if not rep.adjusted:
        raise NotAdjusted("representation does not have matching left endpoints")
    n = rep.n
    g = realize_digraph(rep)
    ordering = Ordering(rank_order(rep.ls, 4 * n))
    max_out, max_in = adjusted_maxima(rep, ordering.perm)

    # suffix minima of max_out, then a sentinel above any real position
    suffix_min_out = list(accumulate(reversed(max_out), min))[::-1] + [n]

    values: list[Optional[int]] = [None] * n
    succ: list[Optional[int]] = [None] * n
    for i in range(n - 1, -1, -1):
        if max_in[i] == n - 1:
            values[i] = 1
            continue
        lo = max(max_out[i], max_in[i]) + 1
        x = suffix_min_out[max_in[i] + 1]
        best_j = argbest(values, range(lo, min(x, n - 1) + 1), objective)
        if best_j is not None:
            values[i] = 1 + values[best_j]
            succ[i] = best_j

    # a kernel's first vertex must absorb every earlier one
    candidates = tuple(range(min(max_out, default=-1) + 1))
    table = SuffixTable(ordering, objective, tuple(values), tuple(succ), candidates)
    return table.certify(g, "kernel", "kernel-dp-adjusted")
