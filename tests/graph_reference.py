"""The former realize-and-compare representation check and the former
graph constructors, kept as differential references.

:func:`verify_representation` realizes the whole digraph of ``rep`` and
compares it with ``g``.  :class:`Digraph` fills one ``set`` per vertex and
direction and sorts each.  The library now checks a representation by one
count of meeting pairs and builds each in-list by one bucket pass over the
sorted out-lists.

:class:`ArcDigraph` is the library's former constructor, which bucketed
range-checked ``(u, v)`` pairs, and :func:`realize_digraph` the former
sweep, which listed every realized arc as a pair before building its
digraph (here an :class:`ArcDigraph`).  The library now fills every digraph from per-tail head
lists (``Digraph.from_heads``), and its sweep extends those lists itself.

:func:`fill` is the library's former fill of those head lists, which
sorted and scanned every list for repeats; the library now sorts and
scans only a list of two or more heads.

``test_graph_reference.py`` checks on random inputs that each pair gives
the same answers.
"""

from __future__ import annotations

from operator import eq
from typing import Iterable

from intdigraph import intervals
from intdigraph.errors import DimensionMismatch, InvalidVertex
from intdigraph.graphs import transpose
from intdigraph.intervals import _SL, _SR, _TL, normalize


def verify_representation(rep, g) -> bool:
    """Exact equality of the realized digraph with ``g``, loops included."""
    if rep.n != g.n:
        raise DimensionMismatch(f"representation has {rep.n} vertices, digraph {g.n}")
    return intervals.realize_digraph(rep) == g


class Digraph:
    """The adjacency of the library's ``Digraph``, built through sets."""

    __slots__ = ("n", "m", "out_adj", "in_adj", "loops")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 loops: Iterable[int] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        self.n = n
        loop_flags = [False] * n
        out: list[set[int]] = [set() for _ in range(n)]
        inn: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                loop_flags[u] = True
                continue
            out[u].add(v)
            inn[v].add(u)
        for v in loops:
            if not (0 <= v < n):
                raise InvalidVertex(f"loop vertex {v} out of range for n={n}")
            loop_flags[v] = True
        self.out_adj = tuple(tuple(sorted(s)) for s in out)
        self.in_adj = tuple(tuple(sorted(s)) for s in inn)
        self.loops = tuple(loop_flags)
        self.m = sum(map(len, self.out_adj))  # self-loops excluded


class ArcDigraph:
    """The adjacency of the library's ``Digraph``, bucketed from checked pairs."""

    __slots__ = ("n", "m", "out_adj", "in_adj", "loops")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 loops: Iterable[int] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        self.n = n
        loop_flags = [False] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            out[u].append(v)
        for v in loops:
            if not (0 <= v < n):
                raise InvalidVertex(f"loop vertex {v} out of range for n={n}")
            loop_flags[v] = True
        for u, heads in enumerate(out):
            heads = set(heads)
            if u in heads:
                heads.remove(u)
                loop_flags[u] = True
            out[u] = tuple(sorted(heads))
        self.out_adj = tuple(out)
        self.in_adj = transpose(self.out_adj, n)
        self.loops = tuple(loop_flags)
        self.m = sum(map(len, self.out_adj))  # self-loops excluded


def fill(heads: list[list[int]], loops: list[bool]):
    """``(out_adj, loops, m)`` of the digraph of arcs from each u to
    ``heads[u]``, taking over ``heads`` and the flags ``loops``."""
    for u, vs in enumerate(heads):
        vs.sort()
        if any(map(eq, vs, vs[1:])):  # a repeated head
            vs = sorted(set(vs))
        if u in vs:
            vs.remove(u)
            loops[u] = True
        heads[u] = tuple(vs)
    out_adj = tuple(heads)
    return out_adj, tuple(loops), sum(map(len, out_adj))  # self-loops excluded


def realize_digraph(rep) -> ArcDigraph:
    """The digraph realized by ``rep``: edge (u, v) iff S_u meets T_v.

    Runs a single sweep over the endpoints in rank order, so the cost is
    O(n log n) plus the number of realized edges.
    """
    rep = normalize(rep)
    owner = [0] * (4 * rep.n)
    codes = [0] * (4 * rep.n)
    for code, ranks in enumerate((rep.ls, rep.lt, rep.rs, rep.rt)):
        for v, r in enumerate(ranks):
            owner[r] = v
            codes[r] = code
    active_s: set[int] = set()
    active_t: set[int] = set()
    edges: list[tuple[int, int]] = []
    for v, code in zip(owner, codes):
        if code == _SL:
            for t in active_t:
                edges.append((v, t))
            active_s.add(v)
        elif code == _TL:
            for s in active_s:
                edges.append((s, v))
            active_t.add(v)
        elif code == _SR:
            active_s.discard(v)
        else:
            active_t.discard(v)
    return ArcDigraph(rep.n, edges)
