"""The forward sweep's former segment tree and removal counts, the red-blue
sweep's former jump table, the former stab index and pair counts, the former
independence sweep and the graph types' former arc sets, kept as
differential references.

:func:`z_sequence` here is the kernel sweep's forward pass as it was, with
:class:`_SurvivorIndex`, a max segment tree over the vertices sorted by
l(S), answering every in-neighbour query.  :func:`below_counts_z_sequence`
is the frontier-walk forward pass as it was before it returned the picks
alone: it also counted each step's removals by one ``below_counts`` and
kept the picks' right ends, both in a :class:`ZSequence`.
:func:`build_red_blue_state`
stabs every A interval and stores, per slot of the right-end order, the
first slot its cover does not reach; :func:`walk` follows those jumps.
:class:`StabIndex` answers a stab by bisecting a sorted copy of the stored
intervals, and :func:`meeting_pairs` counts by bisecting two sorted lists;
the library reads the stab off a prefix maximum over the rank line.
:func:`count_line_meeting_pairs` counts by look-ups in two prefix counts
over the rank line, :func:`count_line`; the library counts on a byte
line instead (``intervals.below_counts``).
:func:`set_is_independent` sweeps the members' endpoints with two active
sets.  :class:`Digraph` and :class:`UndirectedGraph` here keep every arc a
second time in a ``frozenset`` and answer ``m``, ``has_edge``, ``edges()``
and ``==`` from it; :func:`reverse`, :func:`induced_subgraph`,
:func:`underlying_undirected` and :func:`symmetric_digraph` read that set.
The library now uses one frontier walk for both sweeps, one count for
independence and the sorted adjacency tuples alone; ``test_sweep_reference.py`` checks on random inputs that both give
the same answers.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from itertools import accumulate
from typing import Iterable, Iterator, NamedTuple, Optional

from intdigraph.errors import InvalidVertex
from intdigraph.intervals import (IntervalRep, NormalizedRep, below_counts,
                                  frontier_walk, normalize, require_reflexive)


class ZSequence(NamedTuple):
    """The forward pass: picked vertices, per-step removal counts, and the
    (strictly increasing) right ends of their source intervals.  The picked
    vertex together with its just-removed in-neighbours partition V, so the
    removal counts sum to n."""

    vertices: tuple[int, ...]
    removed_counts: tuple[int, ...]
    right_ends: tuple[int, ...]


class StabIndex:
    """Closed intervals with payloads, queried by the interval they meet.

    Built from (lo, hi, payload) items; :meth:`stab` returns the (hi,
    payload) of the stored interval meeting [lo, hi] that reaches furthest
    right, the first in (lo, hi, payload) order on ties, or None.
    """

    __slots__ = ("los", "best")

    def __init__(self, items):
        self.los = []
        self.best = []
        top = None
        for lo, hi, payload in sorted(items):
            if top is None or hi > top[0]:
                top = (hi, payload)
            self.los.append(lo)
            self.best.append(top)

    def stab(self, lo, hi):
        i = bisect_right(self.los, hi)
        if i and self.best[i - 1][0] >= lo:
            return self.best[i - 1]
        return None


def meeting_pairs(rep: NormalizedRep, members) -> int:
    """The pairs (u, v) of ``members``, u = v included, where S_u meets T_v.

    S_u meets T_v exactly when l(T_v) < r(S_u) but not r(T_v) < l(S_u),
    and the second implies the first, so the count is the sum over u of
    the members' T intervals starting below r(S_u) less those ending below
    l(S_u), each one bisection.
    """
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    lts = sorted(lt[v] for v in members)
    rts = sorted(rt[v] for v in members)
    return sum(bisect_left(lts, rs[u]) - bisect_left(rts, ls[u]) for u in members)


def count_line(size: int, ranks) -> list[int]:
    """``below[x]``: how many of the distinct ``ranks`` are at most x."""
    marks = bytearray(size)
    for r in ranks:
        marks[r] = 1
    return list(accumulate(marks))


def count_line_meeting_pairs(rep: NormalizedRep, members) -> int:
    """The pairs (u, v) of ``members``, u = v included, where S_u meets T_v.

    S_u meets T_v exactly when l(T_v) < r(S_u) but not r(T_v) < l(S_u),
    and the second implies the first, so the count is the sum over u of
    the members' T intervals starting below r(S_u) less those ending below
    l(S_u), each one look-up in a :func:`count_line`.
    """
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    lts = count_line(4 * rep.n, map(lt.__getitem__, members))
    rts = count_line(4 * rep.n, map(rt.__getitem__, members))
    return (sum(map(lts.__getitem__, map(rs.__getitem__, members)))
            - sum(map(rts.__getitem__, map(ls.__getitem__, members))))


class _SurvivorIndex:
    """Max segment tree over vertices sorted by l(S), keyed on r(S).

    Supports deleting a vertex and, for a query interval [lt, rt],
    reporting-and-deleting every live vertex u with l(S_u) < rt and
    r(S_u) > lt, i.e. every surviving in-neighbour of the query's owner.
    Each vertex is reported at most once over the whole run.
    """

    __slots__ = ("size", "tree", "sorted_ls", "vertex_at", "leaf_of")

    def __init__(self, ls, rs):
        n = len(ls)
        order = sorted(range(n), key=ls.__getitem__)
        self.sorted_ls = [ls[v] for v in order]
        self.vertex_at = order
        self.leaf_of = [0] * n
        for i, v in enumerate(order):
            self.leaf_of[v] = i
        size = 1
        while size < max(n, 1):
            size <<= 1
        self.size = size
        tree = [-1] * (2 * size)
        for i, v in enumerate(order):
            tree[size + i] = rs[v]
        for i in range(size - 1, 0, -1):
            tree[i] = max(tree[2 * i], tree[2 * i + 1])
        self.tree = tree

    def _bubble(self, i: int) -> None:
        tree = self.tree
        i >>= 1
        while i:
            new = max(tree[2 * i], tree[2 * i + 1])
            if tree[i] == new:
                break
            tree[i] = new
            i >>= 1

    def remove(self, v: int) -> None:
        leaf = self.leaf_of[v] + self.size
        if self.tree[leaf] != -1:
            self.tree[leaf] = -1
            self._bubble(leaf)

    def pop_intersecting(self, lt: int, rt: int) -> list[int]:
        hi = bisect_left(self.sorted_ls, rt)
        if hi == 0:
            return []
        out: list[int] = []
        tree = self.tree
        stack = [(1, 0, self.size)]
        while stack:
            node, node_lo, node_hi = stack.pop()
            if node_lo >= hi or tree[node] <= lt:
                continue
            if node >= self.size:
                out.append(self.vertex_at[node - self.size])
                tree[node] = -1
                self._bubble(node)
                continue
            mid = (node_lo + node_hi) // 2
            stack.append((2 * node + 1, mid, node_hi))
            stack.append((2 * node, node_lo, mid))
        return out


def z_sequence(rep: IntervalRep) -> ZSequence:
    """Run the forward pass of the kernel sweep on a reflexive representation."""
    rep = normalize(rep)
    require_reflexive(rep)
    n = rep.n
    if n == 0:
        return ZSequence((), (), ())
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    order = sorted(range(n), key=rs.__getitem__)
    index = _SurvivorIndex(ls, rs)
    removed = [False] * n
    picked: list[int] = []
    counts: list[int] = []
    rights: list[int] = []
    for v in order:
        if removed[v]:
            continue
        removed[v] = True
        index.remove(v)
        ins = index.pop_intersecting(lt[v], rt[v])
        for u in ins:
            removed[u] = True
        picked.append(v)
        counts.append(1 + len(ins))
        rights.append(rs[v])
    return ZSequence(tuple(picked), tuple(counts), tuple(rights))


def below_counts_z_sequence(rep: IntervalRep) -> ZSequence:
    """Run the forward pass of the kernel sweep on a reflexive representation.

    The picked vertex v has the least r(S) among the survivors, and l(T_v) <
    r(S_v) because v is reflexive, so a survivor u is an in-neighbour of v
    exactly when l(S_u) < r(T_v).  Those survivors are a prefix of the l(S)
    order, and a popped prefix stays empty, so this is the
    :func:`~intdigraph.intervals.frontier_walk` with bound r(T_v).  The
    frontier passes v too, as l(S_v) < r(T_v), so every vertex it passes was
    still a survivor.  The frontier had not passed v, so l(S_v) is at least
    the old frontier and r(T_v) is the new one.  So the picked r(T) ranks
    rise, and after step k the removed vertices are those with l(S) below
    r(T_{z_k}): one :func:`~intdigraph.intervals.below_counts` in pick order.
    """
    rep = normalize(rep)
    require_reflexive(rep)
    rs, rt = rep.rs, rep.rt
    picked, _ = frontier_walk(rep.ls, rs, lambda v: (rt[v], v), 4 * rep.n)
    totals = [0, *below_counts(4 * rep.n, rep.ls, map(rt.__getitem__, picked))]
    counts = tuple(map(operator.sub, totals[1:], totals))
    return ZSequence(picked, counts, tuple(map(rs.__getitem__, picked)))


class RedBlueState(NamedTuple):
    """Precomputed sweep data over the A-part sorted by right endpoint.

    ``a_by_right[s]`` is the A index at slot ``s``; ``cover[s]`` the
    B index reaching furthest right among its neighbours; ``jump[s]`` the
    first slot whose interval starts beyond that reach (None at the end).
    Defined only when no A-vertex is isolated; jumps strictly increase.
    """

    a_by_right: tuple[int, ...]
    cover: tuple[int, ...]
    jump: tuple[Optional[int], ...]


def build_red_blue_state(a_lo, a_hi, b_lo, b_hi) -> Optional[RedBlueState]:
    """The sweep state of the A intervals ``[a_lo[i], a_hi[i]]`` and the B
    intervals ``[b_lo[j], b_hi[j]]``, all endpoints distinct ranks; None
    when some A-vertex has no B-neighbour."""
    t = len(a_lo)
    index = StabIndex(zip(b_lo, b_hi, range(len(b_lo))))
    slots = sorted(range(t), key=a_hi.__getitem__)
    rho = [None] * t
    cover = [None] * t
    for s, i in enumerate(slots):
        best = index.stab(a_lo[i], a_hi[i])
        if best is None:
            return None
        rho[s], cover[s] = best

    by_left = sorted(range(t), key=lambda s: a_lo[slots[s]])
    left_vals = [a_lo[slots[s]] for s in by_left]
    suffix_min_slot = [0] * (t + 1)
    suffix_min_slot[t] = t
    for p in range(t - 1, -1, -1):
        suffix_min_slot[p] = min(by_left[p], suffix_min_slot[p + 1])
    jump: list[Optional[int]] = [None] * t
    for s in range(t):
        p = bisect_right(left_vals, rho[s])
        j = suffix_min_slot[p]
        jump[s] = j if j < t else None

    return RedBlueState(tuple(slots), tuple(cover), tuple(jump))


def walk(state: RedBlueState) -> tuple[int, ...]:
    """The B vertices the sweep picks: the cover of every slot it visits."""
    picks, s = set(), 0
    while s is not None and s < len(state.a_by_right):
        picks.add(state.cover[s])
        nxt = state.jump[s]
        if nxt is not None and nxt <= s:
            raise RuntimeError("red-blue sweep failed to advance")
        s = nxt
    return tuple(sorted(picks))


def set_is_independent(rep, s: Iterable[int]) -> bool:
    """No two distinct vertices of ``s`` are adjacent (either direction)."""
    rep = normalize(rep)
    sweep = sorted((r, u, code) for u in set(s)
                   for code, r in enumerate((rep.ls[u], rep.lt[u], rep.rs[u], rep.rt[u])))
    active_s: set[int] = set()
    active_t: set[int] = set()
    for _, u, code in sweep:
        if code == 2:
            active_s.discard(u)
        elif code == 3:
            active_t.discard(u)
        else:
            own, other = (active_s, active_t) if code == 0 else (active_t, active_s)
            if len(other) - (1 if u in other else 0) > 0:
                return False
            own.add(u)
    return True


class Digraph:
    """A directed graph with O(1)-expected edge membership tests.

    ``out_adj[u]`` / ``in_adj[u]`` are sorted tuples of neighbours other
    than ``u`` itself; ``loops[u]`` records a self-loop.  Duplicate edges
    in the input are collapsed.
    """

    __slots__ = ("n", "out_adj", "in_adj", "loops", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 loops: Iterable[int] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        self.n = n
        loop_flags = [False] * n
        out: list[set[int]] = [set() for _ in range(n)]
        inn: list[set[int]] = [set() for _ in range(n)]
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                loop_flags[u] = True
                continue
            out[u].add(v)
            inn[v].add(u)
            edge_set.add((u, v))
        for v in loops:
            if not (0 <= v < n):
                raise InvalidVertex(f"loop vertex {v} out of range for n={n}")
            loop_flags[v] = True
        self.out_adj = tuple(tuple(sorted(s)) for s in out)
        self.in_adj = tuple(tuple(sorted(s)) for s in inn)
        self.loops = tuple(loop_flags)
        self._edges = frozenset(edge_set)

    @property
    def m(self) -> int:
        """Number of edges, self-loops excluded."""
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test; ``has_edge(v, v)`` reports the self-loop flag."""
        if u == v:
            return self.loops[u]
        return (u, v) in self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        """Non-loop edges in (u, v)-sorted order."""
        return iter(sorted(self._edges))

    def loop_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.loops[v])

    def is_reflexive(self) -> bool:
        return all(self.loops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return (self.n == other.n and self._edges == other._edges
                and self.loops == other.loops)

    def __hash__(self):
        return hash((self.n, self._edges, self.loops))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m}, loops={sum(self.loops)})"


class UndirectedGraph:
    """An undirected, loopless graph with sorted adjacency tuples."""

    __slots__ = ("n", "adj", "_edges")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidVertex(f"loop at {u} not allowed in undirected graph")
            a, b = (u, v) if u < v else (v, u)
            adj[a].add(b)
            adj[b].add(a)
            edge_set.add((a, b))
        self.adj = tuple(tuple(sorted(s)) for s in adj)
        self._edges = frozenset(edge_set)

    @property
    def m(self) -> int:
        return len(self._edges)

    def has_edge(self, u: int, v: int) -> bool:
        if u == v:
            return False
        return ((u, v) if u < v else (v, u)) in self._edges

    def edges(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.n == other.n and self._edges == other._edges

    def __hash__(self):
        return hash((self.n, self._edges))

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


def reverse(g: Digraph) -> Digraph:
    """The digraph with every edge (u, v) replaced by (v, u); loops kept."""
    return Digraph(g.n, ((v, u) for (u, v) in g._edges), g.loop_vertices())


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
    inset = set(svs)
    edges = [(relabel[u], relabel[v]) for (u, v) in g._edges
             if u in inset and v in inset]
    loops = [relabel[v] for v in svs if g.loops[v]]
    return Digraph(len(svs), edges, loops), relabel


def underlying_undirected(g: Digraph) -> UndirectedGraph:
    """Drop directions and loops."""
    return UndirectedGraph(g.n, g._edges)


def symmetric_digraph(h: UndirectedGraph) -> Digraph:
    """Replace every undirected edge by a pair of opposite arcs."""
    arcs = []
    for u, v in h._edges:
        arcs.append((u, v))
        arcs.append((v, u))
    return Digraph(h.n, arcs)
