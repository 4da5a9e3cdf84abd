"""Kernel algorithms.

Two routes, by input:

* :func:`kernel_linear` finds *some* kernel of a reflexive interval digraph,
  straight from the normalized representation.  A forward pass repeatedly
  picks the surviving vertex whose source interval ends first and removes
  it together with its surviving in-neighbours; a backward pass thins the
  picked sequence to an independent set.  Never fails: reflexive interval
  digraphs are kernel-perfect.  Runs in one sort plus O(n): the forward
  pass is one monotone frontier over the l(S) ranks, and the answer is
  checked on the ranks; the digraph itself is never materialized.

* :func:`optimal_kernel_duf` finds a minimum/maximum (optionally weighted)
  kernel of any digraph with a directed umbrella-free ordering, or the
  verdict that no kernel exists.  Dynamic program over suffixes of the
  ordering: each position has at most Delta + 1 candidate continuations
  (Delta the largest degree), each tested by a count with bisection, so
  the table costs O(m log n + n Delta (Delta + log n)).  Re-verifying the
  ordering counts the same way, in O(m (Delta + log n)), on the same
  :meth:`~intdigraph.ordering.Ordering.place` the table reads: one
  placement per solve.  The table is a
  :class:`~intdigraph.ordering.SuffixTable`, which certifies the kernel.
  On a representation with matching left endpoints,
  :func:`optimal_kernel_adjusted` runs this DP on the realized digraph and
  the extracted ordering.

Each route imports only the module it reads, inside its functions: the
representation functions (:func:`z_sequence`, :func:`kernel_linear`,
:func:`optimal_kernel_adjusted`) import :mod:`intdigraph.intervals`, and
the DP functions import :mod:`intdigraph.ordering`.  So ``kernel`` loads no
``ordering``, and ``min-kernel`` / ``max-kernel`` on a digraph file load no
``intervals``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, Optional

from .errors import NotAdjusted, NotCocompOrdered, NotDufOrdered
from .graphs import Certificate, Digraph, UndirectedGraph, certify, check_weights

OBJECTIVES = ("min", "max")


def _check_objective(objective: str) -> None:
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


# --------------------------------------------------------------------------
# linear-time kernel on reflexive interval digraphs


def z_sequence(rep: IntervalRep) -> tuple[int, ...]:
    """The forward pass of the kernel sweep on a reflexive representation:
    the picked vertices, in pick order.

    The picked vertex v has the least r(S) among the survivors, and l(T_v) <
    r(S_v) because v is reflexive, so a survivor u is an in-neighbour of v
    exactly when l(S_u) < r(T_v).  Those survivors are a prefix of the l(S)
    order, and a popped prefix stays empty, so this is the
    :func:`~intdigraph.intervals.frontier_walk` with bound r(T_v).  The
    frontier passes v too, as l(S_v) < r(T_v), so every vertex it passes was
    still a survivor.
    """
    from .intervals import frontier_walk, normalize, require_reflexive
    rep = normalize(rep)
    require_reflexive(rep)
    rt = rep.rt
    return frontier_walk(rep.ls, rep.rs, lambda v: (rt[v], None), 4 * rep.n)[0]


def kernel_linear(rep: IntervalRep) -> Certificate:
    """A kernel of the reflexive interval digraph realized by ``rep``.

    Forward pass by increasing r(S), then a right-to-left pass keeping each
    picked vertex unless it points at the last vertex kept.
    """
    from .intervals import normalize
    rep = normalize(rep)
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    keep: list[int] = []
    for z in reversed(z_sequence(rep)):
        if not keep or not (ls[z] < rt[keep[-1]] and lt[keep[-1]] < rs[z]):
            keep.append(z)  # (z, last kept) is not an edge
    return certify(rep, keep, "kernel", "kernel-linear")


# --------------------------------------------------------------------------
# min/max kernel on digraphs with a DUF-ordering


def compute_kernel_table(ordering: Ordering, placed, objective: str = "min",
                         weights: Optional[Iterable[int]] = None) -> SuffixTable:
    """Fill the suffix table from ``placed``, the caller's
    :meth:`~intdigraph.ordering.Ordering.place` of the digraph under
    ``ordering``, which the caller has already verified DUF.

    A continuation of position i is a position j above i, adjacent to i in
    neither direction, such that every position strictly between that is
    not an in-neighbour of i is an in-neighbour of j.  Let c0 be the first
    position above i that is not an in-neighbour of i.  Any continuation
    j != c0 has c0 strictly between, so c0 -> j is an arc, and the
    candidates are c0 and the out-neighbours of c0 above it, walked in
    increasing position.  Coverage of a candidate is a count: the
    non-in-neighbours of i inside (i, j), by bisection, must equal the
    in-neighbours of j inside (i, j) that are not in-neighbours of i.  This
    candidate argument does not need the ordering to be DUF.  A position
    has at most d+(c0) + 1 candidates, each costing four bisections and one
    set intersection over the in-neighbours of j, so the fill is
    O(m log n + n Delta (Delta + log n)) for largest degree Delta.
    """
    from .ordering import SuffixTable, argbest, covered, first_gap
    _check_objective(objective)
    n = ordering.n
    w = check_weights(weights, n)
    wpos = [w[v] for v in ordering.perm]
    out_pos, in_pos = placed

    values: list[Optional[int]] = [None] * n
    succ: list[Optional[int]] = [None] * n
    for i in range(n - 1, -1, -1):
        ins = in_pos[i]
        c0 = first_gap(ins, i)
        if c0 == n:
            values[i] = wpos[i]
            continue
        in_set = set(ins)
        out_set = set(out_pos[i])
        outs = out_pos[c0]
        # every position between i and c0 is an in-neighbour of i
        admissible = [c0] if c0 not in out_set and values[c0] is not None else []
        for j in outs[bisect_right(outs, c0):]:
            if j in in_set or j in out_set or values[j] is None:
                continue
            if covered(ins, in_set, in_pos[j], i, j):
                admissible.append(j)
        best_j = argbest(values, admissible, objective)
        if best_j is not None:
            values[i] = wpos[i] + values[best_j]
            succ[i] = best_j

    candidates = tuple(p for p in range(n) if bisect_left(in_pos[p], p) == p)
    return SuffixTable(ordering, objective, tuple(values), tuple(succ), candidates)


def optimal_kernel_duf(g: Digraph, ordering: Ordering, objective: str = "min",
                       weights: Optional[Iterable[int]] = None) -> Optional[Certificate]:
    """Optimal kernel of a DUF-ordered digraph, or None when no kernel exists.

    ``objective`` picks minimum or maximum total weight (unit weights by
    default).  The ordering is re-verified on the one placement the table
    reads; a violation raises :class:`NotDufOrdered` with a witness.
    """
    from .ordering import duf_placement
    _check_objective(objective)
    table = compute_kernel_table(ordering, duf_placement(g, ordering), objective, weights)
    return table.certify(g, "kernel", "kernel-dp")


def optimal_kernel_adjusted(rep: IntervalRep, objective: str = "min") -> Certificate:
    """Optimal kernel when every vertex's intervals share a left endpoint;
    any other representation raises :class:`NotAdjusted`.

    Adjusted interval digraphs are reflexive interval digraphs, so this is
    :func:`optimal_kernel_duf` on the ordering of
    :func:`~intdigraph.intervals.extract_duf_ordering`, labelled
    ``kernel-dp-adjusted``.  Normalizing ranks l(T_v) next to an equal
    l(S_v), so that ordering, by max(l(S), l(T)), is the l(S) order.  A
    kernel always exists: reflexive interval digraphs are kernel-perfect.
    """
    from .intervals import extract_duf_ordering, normalize, realize_digraph
    _check_objective(objective)
    rep = normalize(rep)
    if not rep.adjusted:
        raise NotAdjusted("representation does not have matching left endpoints")
    cert = optimal_kernel_duf(realize_digraph(rep), extract_duf_ordering(rep), objective)
    return cert._replace(algorithm="kernel-dp-adjusted")


# --------------------------------------------------------------------------
# minimum independent dominating set in cocomparability graphs


def min_independent_dominating_cocomp(h: UndirectedGraph, ordering: Ordering) -> Certificate:
    """Minimum independent dominating set of an umbrella-free ordered graph.

    Kernels of the symmetric digraph of ``h`` are exactly the independent
    dominating sets of ``h``, and the same ordering is umbrella-free in
    both senses, so after one umbrella check on ``h`` this fills the
    kernel table of that digraph.  Both read ``h``'s adjacency as the out-
    and in-lists: the check and the table from one ``ordering.place(h)``
    (:func:`~intdigraph.ordering.duf_placement`, whose witness becomes the
    :func:`~intdigraph.ordering.umbrella_triple` of a
    :class:`NotCocompOrdered`), the certificate from ``verify_set`` on
    ``h``, so that digraph is never built.  Always succeeds: every maximal
    independent set dominates.
    """
    from .ordering import duf_placement, umbrella_triple
    try:
        placed = duf_placement(h, ordering)
    except NotDufOrdered as exc:
        raise NotCocompOrdered(umbrella_triple(exc.witness)) from None
    table = compute_kernel_table(ordering, placed, "min")
    cert = table.certify(h, "solution", "cocomp-min-ind-dom")
    if cert is None:
        raise RuntimeError("graph without an independent dominating set")
    return cert
