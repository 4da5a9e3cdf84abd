"""The ordered routines as they were before the position-space placement,
kept as differential references.

Each maps vertices to positions itself: :func:`_umbrella_at` sorts the
positions of a vertex's neighbour set at every position,
:func:`verify_duf_ordering` and :func:`verify_cocomparability_ordering`
scan every middle position of every spanning arc, and
:func:`_construct_scaled` sorts each vertex's neighbour positions.  The
library now reads one :meth:`~intdigraph.ordering.Ordering.place` per
call; ``test_ordering_reference.py`` checks on random inputs that both
give the same witnesses, triples and endpoints.

:func:`cocomp_triple` is the library's former umbrella scan of an
undirected graph's placement, a second copy of the DUF check's out-arc
scan; the library now runs that check itself on the undirected graph.

:func:`duf_witness` is the library's former scan of a placement, which
called the library's ``_umbrella_at`` at every position in both
directions.  The library now skips a position whose upper neighbours are
one run of consecutive positions, where no arc spans a hole.

:class:`BucketOrdering` keeps the former ``place``, one bucket pass per
direction over ``in_adj`` and ``out_adj``.  The library's buckets only
``out_adj`` and transposes the in-positions it gives.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from intdigraph.errors import InvalidOrdering
from intdigraph.graphs import Digraph, UndirectedGraph
from intdigraph.ordering import Ordering, StructureWitness, _require_matching


class BucketOrdering(Ordering):
    """An :class:`Ordering` with the former :meth:`place`."""

    __slots__ = ()

    def place(self, g: Digraph | UndirectedGraph
              ) -> tuple[list[list[int]], list[list[int]]]:
        """``g``'s out- and in-neighbour lists in position space.

        Entry p lists, in rising order, the positions of the out- (in-)
        neighbours of ``perm[p]``; an :class:`UndirectedGraph` gives its
        ``adj`` as both.  One O(n + m) bucket pass per direction and no
        sort: each list is appended to in rising position order.
        """
        if isinstance(g, UndirectedGraph):
            adj = self._bucket(g.adj)
            return adj, adj
        return self._bucket(g.in_adj), self._bucket(g.out_adj)

    def _bucket(self, adj) -> list[list[int]]:
        """Entry p lists the positions q whose vertex has ``perm[p]`` in its
        ``adj``: walking q upwards appends them sorted."""
        pos = self.positions
        lists: list[list[int]] = [[] for _ in self.perm]
        for q, v in enumerate(self.perm):
            for u in adj[v]:
                lists[pos[u]].append(q)
        return lists


def _umbrella_at(near, far, perm, pos, p) -> Optional[tuple[int, int]]:
    """The first umbrella over position p among the arcs of one direction.

    ``near[u]`` and ``far[u]`` are u's out- and in-neighbour sets for the
    out-arcs, swapped for the in-arcs.  Returns the first (r, q), by q then
    r, such that q's vertex is in ``near`` of p's while the vertex at r,
    strictly between, is in neither ``near`` of p's vertex nor ``far`` of
    q's; None when there is none."""
    v = perm[p]
    near_v = near[v]
    for q in sorted(map(pos.__getitem__, near_v)):
        if q < p + 2:
            continue
        far_k = far[perm[q]]
        for r in range(p + 1, q):
            mid = perm[r]
            if mid not in near_v and mid not in far_k:
                return r, q
    return None


def verify_duf_ordering(g: Digraph, ordering: Ordering) -> Optional[StructureWitness]:
    """None if the ordering is directed umbrella-free, else a witness.

    Scans, for every edge spanning at least one middle position, the
    vertices in between; O(n m) worst case.  At each position the
    out-arcs are scanned before the in-arcs.
    """
    _require_matching(g, ordering)
    perm, pos = ordering.perm, ordering.positions
    outs = list(map(set, g.out_adj))
    ins = list(map(set, g.in_adj))
    scans = (("duf-out", outs, ins), ("duf-in", ins, outs))
    for p in range(g.n):
        for kind, near, far in scans:
            hit = _umbrella_at(near, far, perm, pos, p)
            if hit is not None:
                r, q = hit
                return StructureWitness(kind, (perm[p], perm[r], perm[r], perm[q]),
                                        (p, r, r, q))
    return None


def _construct_scaled(g: Digraph, ordering: Ordering):
    """The interval formulas, with every value scaled by (n + 1).

    Works in position space with 1-based indices; returns the
    per-position endpoint lists (LS, RS, LT, RT) as exact integers.  The
    scaling keeps z-fractions integral and preserves every comparison, so
    the scaled representation realizes the same digraph as the unscaled one.
    """
    n = g.n
    perm, pos = ordering.perm, ordering.positions
    scale = n + 1

    def right_end(p: int, nbr_pos: list[int]) -> int:
        nbrs = set(nbr_pos)
        j = p + 1
        while j < n and j in nbrs:
            j += 1
        # y is 1-based; j == n means everything above p is a neighbour
        y = j + 1 if j < n else n + 1
        z = len(nbr_pos) - bisect_right(nbr_pos, j)
        return (y - 1) * scale + z

    rs = [0] * n
    rt = [0] * n
    out_pos = [sorted(pos[w] for w in g.out_adj[perm[p]]) for p in range(n)]
    in_pos = [sorted(pos[w] for w in g.in_adj[perm[p]]) for p in range(n)]
    for p in range(n):
        rs[p] = right_end(p, out_pos[p])
        rt[p] = right_end(p, in_pos[p])
    ls = [0] * n
    lt = [0] * n
    for p in range(n):
        best_t = (p + 1) * scale
        for q in in_pos[p]:
            if q < p and rs[q] < best_t:
                best_t = rs[q]
        lt[p] = best_t
        best_s = (p + 1) * scale
        for q in out_pos[p]:
            if q < p and rt[q] < best_s:
                best_s = rt[q]
        ls[p] = best_s
    return ls, rs, lt, rt


def verify_cocomparability_ordering(
        h: UndirectedGraph, ordering: Ordering) -> Optional[tuple[int, int, int]]:
    """None if the ordering is umbrella-free for ``h``, else a violating
    triple (i, j, k) of vertices with i < j < k in the ordering, ik an edge
    and neither ij nor jk present.  This is the out-arc scan of the DUF
    check, run on ``h`` itself: on the symmetric digraph of ``h`` the
    in-arc scan at a position fails only where the out-arc scan already
    has, so the triple is the :func:`umbrella_triple` of that check."""
    if ordering.n != h.n:
        raise InvalidOrdering(f"ordering covers {ordering.n} vertices, graph has {h.n}")
    perm, pos = ordering.perm, ordering.positions
    adj = list(map(set, h.adj))
    for p in range(h.n):
        hit = _umbrella_at(adj, adj, perm, pos, p)
        if hit is not None:
            r, q = hit
            return (perm[p], perm[r], perm[q])
    return None


def cocomp_triple(ordering: Ordering, adj) -> Optional[tuple[int, int, int]]:
    """None if the graph with position lists ``adj`` (either half of its
    :meth:`Ordering.place` under ``ordering``) is umbrella-free, else the
    triple of :func:`verify_cocomparability_ordering`."""
    from intdigraph.ordering import _umbrella_at  # the library's, not this module's
    perm = ordering.perm
    for p in range(ordering.n):
        hit = _umbrella_at(adj, adj, p)
        if hit is not None:
            r, q = hit
            return (perm[p], perm[r], perm[q])
    return None


def duf_witness(ordering: Ordering, placed) -> Optional[StructureWitness]:
    """None if the digraph placed as ``placed`` (its :meth:`Ordering.place`
    under ``ordering``) is directed umbrella-free, else a witness.

    Tests, for every arc spanning at least one middle position, that the
    positions in between are covered, by one count per arc:
    O(m (Delta + log n)) for largest degree Delta.  At each position the
    out-arcs are scanned before the in-arcs.  When both lists are one
    object, as an undirected graph's placement is, the in-arc scan would
    repeat the out-arc scan, and only the out-arcs are scanned.
    """
    from intdigraph.ordering import _umbrella_at  # as in cocomp_triple
    perm = ordering.perm
    outs, ins = placed
    scans = [("duf-out", outs, ins)]
    if ins is not outs:
        scans.append(("duf-in", ins, outs))
    for p in range(ordering.n):
        for kind, near, far in scans:
            hit = _umbrella_at(near, far, p)
            if hit is not None:
                r, q = hit
                return StructureWitness(kind, (perm[p], perm[r], perm[r], perm[q]),
                                        (p, r, r, q))
    return None
