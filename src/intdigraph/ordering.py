"""Vertex orderings: position-space adjacency, umbrella checks, the interval
map and the DP suffix table.

Two nested conditions appear throughout:

* the *directed umbrella-free* (DUF) condition on an ordering: every edge
  spanning a middle vertex is covered on one side, in both edge directions;
* the stronger *forbidden-structure* condition: six four-vertex patterns
  (three per edge direction, the middle pair allowed to coincide in four of
  them) must not occur.  An ordering avoids all six exactly when the
  constructive interval formulas below realize the digraph, which is what
  :func:`check_reflexive_interval_ordering` exploits: build, verify, and
  only hunt for an explicit witness when verification fails.

The DUF checks and the suffix table read only a digraph and an ordering,
so this module imports :mod:`intdigraph.intervals` only inside the two
functions that build or verify a representation: ``_scaled_check`` and
:func:`build_representation`.  ``mis``, ``min-kernel`` / ``max-kernel`` on
a digraph file and ``check-ordering --kind duf|cocomp`` never load it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterable, NamedTuple, Optional

from .errors import ForbiddenStructure, InvalidOrdering, NotDufOrdered, NotReflexive
from .graphs import Certificate, Digraph, UndirectedGraph, certify, transpose_lists

# Largest n for which a failing check still locates a concrete quadruple;
# the O(n^4) search takes well under a second at this size.
WITNESS_SEARCH_CAP = 40


class Ordering:
    """A permutation of [0, n) with each vertex's position."""

    __slots__ = ("perm", "positions")

    def __init__(self, perm: Iterable[int]):
        perm = tuple(perm)
        n = len(perm)
        pos = [-1] * n
        for p, v in enumerate(perm):
            if not (0 <= v < n) or pos[v] != -1:
                raise InvalidOrdering(f"{perm} is not a permutation of [0, {n})")
            pos[v] = p
        self.perm = perm
        self.positions = tuple(pos)

    @property
    def n(self) -> int:
        return len(self.perm)

    def place(self, g: Digraph | UndirectedGraph
              ) -> tuple[list[list[int]], list[list[int]]]:
        """``g``'s out- and in-neighbour lists in position space.

        Entry p lists, in rising order, the positions of the out- (in-)
        neighbours of ``perm[p]``; an :class:`UndirectedGraph` gives its
        ``adj`` as both.  O(n + m) and no sort: one bucket pass over
        ``out_adj`` gives the in-positions, and transposing those in
        position space gives the out-positions, so ``in_adj`` is never
        read.  Every list is appended to in rising position order.
        """
        if isinstance(g, UndirectedGraph):
            adj = self._bucket(g.adj)
            return adj, adj
        in_pos = self._bucket(g.out_adj)
        return transpose_lists(in_pos, len(in_pos)), in_pos

    def _bucket(self, adj) -> list[list[int]]:
        """Entry p lists the positions q whose vertex has ``perm[p]`` in its
        ``adj``: walking q upwards appends them sorted."""
        pos = self.positions
        lists: list[list[int]] = [[] for _ in self.perm]
        for q, v in enumerate(self.perm):
            for u in adj[v]:
                lists[pos[u]].append(q)
        return lists

    def __eq__(self, other):
        if not isinstance(other, Ordering):
            return NotImplemented
        return self.perm == other.perm

    def __hash__(self):
        return hash(self.perm)

    def __repr__(self):
        return f"Ordering({self.perm})"


def first_gap(nbrs: list[int], p: int) -> int:
    """The first position above ``p`` missing from the sorted list ``nbrs``."""
    j = p + 1
    for q in nbrs[bisect_right(nbrs, p):]:
        if q != j:
            break
        j += 1
    return j


def covered(near: list[int], near_set: set[int], far: list[int], p: int, q: int) -> bool:
    """Whether every position strictly between p and q is in ``near`` or in
    ``far`` (sorted lists; ``near_set`` is ``set(near)``), by counting: the
    positions missing from ``near`` must all be positions of ``far``."""
    gap = q - p - 1 - (bisect_left(near, q) - bisect_right(near, p))
    between = far[bisect_right(far, p):bisect_left(far, q)]
    return len(between) - len(near_set.intersection(between)) == gap


def argbest(values, positions, objective: str) -> Optional[int]:
    """The first of ``positions`` with the best non-None value (largest for
    objective 'max', else smallest), or None when every value is None."""
    high = objective == "max"
    best_p: Optional[int] = None
    best_val = None
    for p in positions:
        val = values[p]
        if val is not None and (best_val is None
                                or (val > best_val if high else val < best_val)):
            best_p, best_val = p, val
    return best_p


class SuffixTable(NamedTuple):
    """A right-to-left dynamic program over an ordering, in position space.

    ``values[p]`` is the best weight of a solution on positions [p, n)
    that contains p, or None when there is none; ``succ[p]`` is the next
    position of that solution (None at its end).  ``candidates`` are the
    positions that may start a solution for the whole digraph.
    """

    ordering: Ordering
    objective: str
    values: tuple[Optional[int], ...]
    succ: tuple[Optional[int], ...]
    candidates: tuple[int, ...]

    def chain_positions(self, p: int) -> list[int]:
        if self.values[p] is None:
            raise ValueError(f"position {p} starts no solution")
        out = [p]
        while self.succ[out[-1]] is not None:
            out.append(self.succ[out[-1]])
        return out

    def certify(self, g: Digraph | UndirectedGraph, mode: str,
                algorithm: str) -> Optional[Certificate]:
        """The best candidate's solution, re-checked on ``g`` in ``mode`` by
        :func:`~intdigraph.graphs.certify`; None when no candidate has a
        value.  An empty ordering gives the empty set, of value 0."""
        if not self.ordering.n:
            chain, value = [], 0
        else:
            best = argbest(self.values, self.candidates, self.objective)
            if best is None:
                return None
            chain, value = self.chain_positions(best), self.values[best]
        return certify(g, [self.ordering.perm[q] for q in chain], mode, algorithm,
                       optimal=True, objective=self.objective, value=value)


class StructureWitness(NamedTuple):
    """A concrete violation found in an ordering.

    ``vertices`` lists four vertices at ordering positions a < b <= c < d
    (b = c for the collapsed patterns and for DUF violations, where the
    tuple is (i, j, j, k)).  Kinds 'i'..'vi' name the four-vertex patterns;
    'duf-out'/'duf-in' name the two directions of the umbrella condition;
    'unlocated' is a bare failing verdict above the witness-search cap.
    """

    kind: str
    vertices: tuple[int, ...]
    positions: tuple[int, ...]


def _pattern_holds(g: Digraph, kind: str, va: int, vb: int, vc: int, vd: int) -> bool:
    e = g.has_edge
    if kind == "i":
        return e(va, vd) and not e(va, vb) and not e(vc, vd)
    if kind == "ii":
        return e(va, vd) and e(vb, vc) and not e(va, vc) and not e(vb, vd)
    if kind == "iii":
        return e(va, vc) and e(vb, vd) and not e(va, vd) and not e(vb, vc)
    if kind == "iv":
        return e(vd, va) and not e(vb, va) and not e(vd, vc)
    if kind == "v":
        return e(vd, va) and e(vc, vb) and not e(vc, va) and not e(vd, vb)
    if kind == "vi":
        return e(vc, va) and e(vd, vb) and not e(vd, va) and not e(vc, vb)
    if kind == "duf-out":
        return e(va, vd) and not e(va, vb) and not e(vb, vd)
    if kind == "duf-in":
        return e(vd, va) and not e(vd, vb) and not e(vb, va)
    raise ValueError(f"unknown witness kind {kind!r}")


def _require_matching(g, ordering) -> None:
    if ordering.n != g.n:
        noun = "graph" if isinstance(g, UndirectedGraph) else "digraph"
        raise InvalidOrdering(f"ordering covers {ordering.n} vertices, {noun} has {g.n}")


def _umbrella_at(near, far, p) -> Optional[tuple[int, int]]:
    """The first umbrella over position p among the arcs of one direction.

    ``near`` and ``far`` are the out- and in-neighbour position lists for
    the out-arcs, swapped for the in-arcs.  Returns the first (r, q), by q
    then r, such that q is in ``near[p]`` while r, strictly between, is in
    neither ``near[p]`` nor ``far[q]``; None when there is none."""
    near_p = near[p]
    near_set = set(near_p)
    # arcs that end before the first gap above p span no other position
    for q in near_p[bisect_right(near_p, first_gap(near_p, p)):]:
        if not covered(near_p, near_set, far[q], p, q):
            outside = near_set.union(far[q])
            return next(r for r in range(p + 1, q) if r not in outside), q
    return None


def duf_witness(ordering: Ordering, placed) -> Optional[StructureWitness]:
    """None if the digraph placed as ``placed`` (its :meth:`Ordering.place`
    under ``ordering``) is directed umbrella-free, else a witness.

    Tests, for every arc spanning at least one middle position, that the
    positions in between are covered, by one count per arc.  A position p
    whose k neighbours above it (in one direction) are exactly p+1..p+k,
    which holds when the last of them is k above p, has no such arc and is
    not scanned; so the check costs O(n log Delta) for largest degree
    Delta, plus O(d (Delta + log n)) at each position of degree d whose
    upper neighbours leave a hole.  At each position the out-arcs are
    scanned before the in-arcs.  When both lists are one object, as an
    undirected graph's placement is, the in-arc scan would repeat the
    out-arc scan, and only the out-arcs are scanned.
    """
    perm = ordering.perm
    outs, ins = placed
    scans = [("duf-out", outs, ins)]
    if ins is not outs:
        scans.append(("duf-in", ins, outs))
    for p in range(ordering.n):
        for kind, near, far in scans:
            near_p = near[p]
            if not near_p or near_p[-1] - p <= len(near_p) - bisect_right(near_p, p):
                continue  # the neighbours above p are one run: no umbrella
            hit = _umbrella_at(near, far, p)
            if hit is not None:
                r, q = hit
                return StructureWitness(kind, (perm[p], perm[r], perm[r], perm[q]),
                                        (p, r, r, q))
    return None


def verify_duf_ordering(g: Digraph | UndirectedGraph,
                        ordering: Ordering) -> Optional[StructureWitness]:
    """None if the ordering is directed umbrella-free for ``g``, else the
    :func:`duf_witness` of its placement."""
    _require_matching(g, ordering)
    return duf_witness(ordering, ordering.place(g))


def duf_placement(g: Digraph | UndirectedGraph, ordering: Ordering):
    """``ordering.place(g)`` once :func:`duf_witness` has passed it: the one
    placement an ordered solver reads.  A violation raises
    :class:`NotDufOrdered` with the witness of :func:`verify_duf_ordering`."""
    _require_matching(g, ordering)
    placed = ordering.place(g)
    witness = duf_witness(ordering, placed)
    if witness is not None:
        raise NotDufOrdered(witness)
    return placed


def find_forbidden_structure(g: Digraph, ordering: Ordering) -> Optional[StructureWitness]:
    """Direct scan for the six patterns; lexicographically least quadruple.

    Quadruples (a, b, c, d) of positions with a < b <= c < d are visited in
    lexicographic order; at each, kinds 'i'..'vi' are tried in order ('iii'
    and 'vi' need b < c).  Intended for witness extraction and as the slow
    reference for the construct-and-verify check; O(n^4).
    """
    _require_matching(g, ordering)
    perm = ordering.perm
    n = g.n
    for pa in range(n):
        va = perm[pa]
        for pb in range(pa + 1, n):
            vb = perm[pb]
            for pc in range(pb, n):
                vc = perm[pc]
                for pd in range(pc + 1, n):
                    vd = perm[pd]
                    for kind in ("i", "ii", "iii", "iv", "v", "vi"):
                        if pb == pc and kind in ("iii", "vi"):
                            continue
                        if _pattern_holds(g, kind, va, vb, vc, vd):
                            return StructureWitness(kind, (va, vb, vc, vd),
                                                    (pa, pb, pc, pd))
    return None


def _construct_scaled(g: Digraph, ordering: Ordering):
    """The interval formulas, with every value scaled by (n + 1).

    Works in position space with 1-based indices; returns the
    per-position endpoint lists (LS, RS, LT, RT) as exact integers.  The
    scaling keeps z-fractions integral and preserves every comparison, so
    the scaled representation realizes the same digraph as the unscaled one.
    """
    scale = g.n + 1
    out_pos, in_pos = ordering.place(g)

    def right_end(p: int, nbrs: list[int]) -> int:
        # y - 1 = j, the first non-neighbour above p (n when there is none),
        # and z counts the neighbours beyond it
        j = first_gap(nbrs, p)
        return j * scale + len(nbrs) - bisect_right(nbrs, j)

    def left_end(p: int, nbrs: list[int], rights: list[int]) -> int:
        return min([(p + 1) * scale] + [rights[q] for q in nbrs[:bisect_left(nbrs, p)]])

    rs = [right_end(p, nbrs) for p, nbrs in enumerate(out_pos)]
    rt = [right_end(p, nbrs) for p, nbrs in enumerate(in_pos)]
    ls = [left_end(p, nbrs, rt) for p, nbrs in enumerate(out_pos)]
    lt = [left_end(p, nbrs, rs) for p, nbrs in enumerate(in_pos)]
    return ls, rs, lt, rt


def _scaled_check(g: Digraph, ordering: Ordering, find_witness: bool):
    """``(rep, witness)``: the scaled representation, by vertex, and the
    check's verdict; a vertex without a self-loop raises NotReflexive."""
    from .intervals import IntervalRep, verify_representation  # deferred: see the module docstring
    _require_matching(g, ordering)
    for v in range(g.n):
        if not g.loops[v]:
            raise NotReflexive(v, f"vertex {v} has no self-loop")
    rep = IntervalRep.from_columns(*(map(col.__getitem__, ordering.positions)
                                     for col in _construct_scaled(g, ordering)))
    if verify_representation(rep, g):
        return rep, None
    if find_witness and g.n <= WITNESS_SEARCH_CAP:
        witness = find_forbidden_structure(g, ordering)
        if witness is None:
            raise RuntimeError("verification failed but no pattern found")
        return rep, witness
    return rep, StructureWitness("unlocated", (), ())


def check_reflexive_interval_ordering(
        g: Digraph, ordering: Ordering,
        find_witness: bool = True) -> Optional[StructureWitness]:
    """None if none of the six forbidden patterns occur, else a witness.

    Decision by construct-and-verify (O(m + n log n)): the formulas realize
    the digraph exactly when the ordering is pattern-free.  The
    construction is O(n + m), through one :meth:`Ordering.place`, and
    :func:`~intdigraph.intervals.verify_representation` checks it by one
    count, realizing no digraph.  On failure a concrete quadruple is
    located by :func:`find_forbidden_structure` unless n exceeds the
    search cap, in which case the witness has kind 'unlocated'.
    """
    return _scaled_check(g, ordering, find_witness)[1]


def build_representation(g: Digraph, ordering: Ordering) -> IntervalRep:
    """A reflexive interval representation realizing ``g`` under ``ordering``.

    Requires a loop on every vertex and a pattern-free ordering; raises
    ForbiddenStructure carrying a witness otherwise.  Decided by the same
    integer construct-and-verify as
    :func:`check_reflexive_interval_ordering`; the endpoint values are then
    the exact rationals of the construction (right ends y - 1 + z/(n+1),
    left ends the matching minima).
    """
    from fractions import Fraction  # loaded only here, not at start-up
    from .intervals import IntervalRep  # deferred, as in _scaled_check

    rep, witness = _scaled_check(g, ordering, True)
    if witness is not None:
        raise ForbiddenStructure(witness)
    scale = g.n + 1
    return IntervalRep.from_columns(*([Fraction(x, scale) for x in col]
                                      for col in (rep.ls, rep.rs, rep.lt, rep.rt)))


def umbrella_triple(witness: StructureWitness) -> tuple[int, int, int]:
    """The (i, j, k) of a DUF witness (i, j, j, k) on a symmetric digraph."""
    i, j, _, k = witness.vertices
    return (i, j, k)


def verify_cocomparability_ordering(
        h: UndirectedGraph, ordering: Ordering) -> Optional[tuple[int, int, int]]:
    """None if the ordering is umbrella-free for ``h``, else a violating
    triple (i, j, k) of vertices with i < j < k in the ordering, ik an edge
    and neither ij nor jk present: the :func:`umbrella_triple` of
    :func:`verify_duf_ordering` on ``h`` itself, which scans its one
    adjacency list once, as the out-arcs of the symmetric digraph of ``h``."""
    witness = verify_duf_ordering(h, ordering)
    return None if witness is None else umbrella_triple(witness)
