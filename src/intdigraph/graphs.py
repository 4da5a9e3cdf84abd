"""Directed and undirected graph types plus the one definitional set checker,
:func:`verify_set`, which also checks an interval representation, on its ranks,
and :func:`certify`, the step in which every solver checks its answer.

Vertices are dense 0-based integers.  Self-loops are stored as per-vertex
flags, never inside the adjacency lists, and are not counted in ``m``.
All types are immutable after construction and safe to share between
threads; anything that looks like mutation builds a new object.
"""

from __future__ import annotations

from bisect import bisect_left
from operator import eq
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidVertex

# The checks each mode of verify_set runs, in report order.
VERIFY_CHECKS = {"independent": ("independent",), "absorbing": ("absorbing",),
                 "dominating": ("dominating",), "kernel": ("independent", "absorbing"),
                 "solution": ("independent", "dominating")}


def _in_sorted(adj: tuple[int, ...], v: int) -> bool:
    i = bisect_left(adj, v)
    return i < len(adj) and adj[i] == v


def transpose_lists(adj, size: int) -> list[list[int]]:
    """The reverse of the lists ``adj`` on ``size`` heads: entry v lists
    the u with v in ``adj[u]``, sorted, since u is walked upwards."""
    lists: list[list[int]] = [[] for _ in range(size)]
    for u, heads in enumerate(adj):
        for v in heads:
            lists[v].append(u)
    return lists


def transpose(adj, size: int) -> tuple[tuple[int, ...], ...]:
    """:func:`transpose_lists` as tuples."""
    return tuple(map(tuple, transpose_lists(adj, size)))


class Digraph:
    """A directed graph stored as sorted adjacency tuples.

    ``out_adj[u]`` / ``in_adj[u]`` are sorted tuples of neighbours other
    than ``u`` itself; ``loops[u]`` records a self-loop.  Every digraph is
    one fill from per-tail head lists (:meth:`from_heads`): it collapses
    duplicate arcs, moves self-arcs to ``loops`` and sorts each out-list
    of two or more heads once.  The in-lists are built the first time
    ``in_adj`` is read, by one bucket pass over the out-lists
    (:func:`transpose`), and kept in their slot; routines that read only
    ``out_adj`` never build them.  Edge membership bisects ``out_adj[u]``.
    """

    __slots__ = ("n", "m", "out_adj", "in_adj", "loops")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = (),
                 loops: Iterable[int] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        loop_flags = [False] * n  # first, so an n too large to allocate fails at once
        heads: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            heads[u].append(v)
        for v in loops:
            if not (0 <= v < n):
                raise InvalidVertex(f"loop vertex {v} out of range for n={n}")
            loop_flags[v] = True
        self._fill(heads, loop_flags)

    @classmethod
    def from_heads(cls, heads: list[list[int]], loops: list[bool] | None = None) -> "Digraph":
        """The digraph of arcs from each u to ``heads[u]`` (unchecked; repeats and
        u, a loop, allowed), taking over ``heads`` and the flags ``loops``."""
        g = cls.__new__(cls)
        g._fill(heads, [False] * len(heads) if loops is None else loops)
        return g

    def _fill(self, heads: list[list[int]], loops: list[bool]) -> None:
        for u, vs in enumerate(heads):
            if len(vs) > 1:
                vs.sort()
                if any(map(eq, vs, vs[1:])):  # a repeated head
                    vs = sorted(set(vs))
            if u in vs:
                vs.remove(u)
                loops[u] = True
            heads[u] = tuple(vs)
        self.n = len(heads)
        self.out_adj = tuple(heads)
        self.loops = tuple(loops)
        self.m = sum(map(len, self.out_adj))  # self-loops excluded

    def __getattr__(self, name: str):
        # Called only when normal lookup fails: for ``in_adj``, on its first read.
        if name != "in_adj":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.in_adj = transpose(self.out_adj, self.n)
        return self.in_adj

    def has_edge(self, u: int, v: int) -> bool:
        """Edge test; ``has_edge(v, v)`` reports the self-loop flag.

        False whenever ``u`` or ``v`` is outside ``[0, n)``."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        if u == v:
            return self.loops[u]
        return _in_sorted(self.out_adj[u], v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Non-loop edges in (u, v)-sorted order."""
        return ((u, v) for u, vs in enumerate(self.out_adj) for v in vs)

    def loop_vertices(self) -> tuple[int, ...]:
        return tuple(v for v in range(self.n) if self.loops[v])

    def is_reflexive(self) -> bool:
        return all(self.loops)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.out_adj == other.out_adj and self.loops == other.loops

    def __hash__(self):
        return hash((self.out_adj, self.loops))

    def __repr__(self):
        return f"Digraph(n={self.n}, m={self.m}, loops={sum(self.loops)})"


class UndirectedGraph:
    """An undirected, loopless graph with sorted adjacency tuples."""

    __slots__ = ("n", "m", "adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise InvalidVertex(f"vertex count {n} is negative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertex(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise InvalidVertex(f"loop at {u} not allowed in undirected graph")
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(tuple(sorted(s)) for s in adj)
        self.m = sum(map(len, self.adj)) // 2

    def has_edge(self, u: int, v: int) -> bool:
        """False for ``u == v`` and whenever either is outside ``[0, n)``."""
        return 0 <= u < self.n and 0 <= v < self.n and _in_sorted(self.adj[u], v)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Edges as (u, v) with u < v, in sorted order."""
        return ((u, v) for u, vs in enumerate(self.adj) for v in vs if u < v)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UndirectedGraph):
            return NotImplemented
        return self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

    def __repr__(self):
        return f"UndirectedGraph(n={self.n}, m={self.m})"


class Certificate(NamedTuple):
    """A vertex set together with the property checks actually run on it.

    ``checks`` maps property name to pass/fail; every key listed was
    evaluated on ``vertices``.  ``optimal`` records whether the producing
    algorithm claims extremality, ``value`` the optimised size or weight.
    """

    vertices: tuple[int, ...]
    checks: dict[str, bool]
    algorithm: str = "unspecified"
    optimal: bool = False
    objective: str | None = None
    value: int | None = None

    @property
    def size(self) -> int:
        return len(self.vertices)

    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def to_json(self) -> dict:
        out = {
            "set": list(self.vertices),
            "size": self.size,
            "checks": dict(self.checks),
            "certificate_checked": self.all_checks_pass(),
            "algorithm": self.algorithm,
            "optimal": self.optimal,
        }
        if self.objective is not None:
            out["objective"] = self.objective
        if self.value is not None:
            out["value"] = self.value
        return out


def underlying_undirected(g: Digraph) -> UndirectedGraph:
    """Drop directions and loops."""
    return UndirectedGraph(g.n, g.edges())


def check_weights(weights, n: int) -> list[int]:
    """Per-vertex weights: unit weights for None, else n non-negative ints.

    ``bool`` is rejected although it subclasses ``int``.
    """
    if weights is None:
        return [1] * n
    weights = list(weights)
    if len(weights) != n:
        raise ValueError(f"expected {n} weights, got {len(weights)}")
    for w in weights:
        if isinstance(w, bool) or not isinstance(w, int) or w < 0:
            raise ValueError(f"weights must be non-negative integers, got {w!r}")
    return weights


def _check_independent(g: Digraph | UndirectedGraph, sset: set[int]) -> bool:
    outs = g.adj if isinstance(g, UndirectedGraph) else g.out_adj
    for u in sset:
        for v in outs[u]:
            if v in sset:
                return False
    return True


def _check_absorbing(g: Digraph | UndirectedGraph, sset: set[int], inward: bool = False) -> bool:
    """Every vertex outside ``sset`` has an out- (``inward``: in-) neighbour
    in it; an undirected graph's ``adj`` is both lists.  A loop never
    absorbs a vertex outside the set."""
    lists = g.adj if isinstance(g, UndirectedGraph) else g.in_adj if inward else g.out_adj
    for v, ws in enumerate(lists):
        if v not in sset and not any(w in sset for w in ws):
            return False
    return True


def vertex_set(s: Iterable[int], n: int) -> set[int]:
    """``s`` as a set; :class:`InvalidVertex` names its least id outside 0..n-1."""
    sset = set(s)
    if sset and not 0 <= min(sset) <= max(sset) < n:
        bad = min(v for v in sset if not 0 <= v < n)
        raise InvalidVertex(f"vertex {bad} out of range for n={n}")
    return sset


def verify_set(g, s: Iterable[int], mode: str) -> Certificate:
    """Run the definitional check(s) named by ``mode`` on the set ``s``.

    ``g`` is a :class:`Digraph`, an :class:`UndirectedGraph` or an interval
    representation, normalized and checked on its ranks by the ``set_is_*``
    of :mod:`intdigraph.intervals`.  kernel = independent and absorbing;
    solution = independent and dominating.  The returned :class:`Certificate`
    records exactly the checks run, in :data:`VERIFY_CHECKS` order.
    """
    if mode not in VERIFY_CHECKS:
        raise ValueError(f"unknown mode {mode!r}, expected one of {tuple(VERIFY_CHECKS)}")
    if isinstance(g, (Digraph, UndirectedGraph)):
        checkers = (_check_independent, _check_absorbing,
                    lambda g, sset: _check_absorbing(g, sset, inward=True))
    else:
        from . import intervals  # deferred: intervals imports this module
        g = intervals.normalize(g)
        # read off the module per call, so a rebound attribute is the one run
        checkers = (intervals.set_is_independent, intervals.set_is_absorbing,
                    intervals.set_is_dominating)
    sset = vertex_set(s, g.n)
    run = dict(zip(("independent", "absorbing", "dominating"), checkers))
    checks = {name: run[name](g, sset) for name in VERIFY_CHECKS[mode]}
    return Certificate(vertices=tuple(sorted(sset)), checks=checks,
                       algorithm="definition-check")


def certify(g, s: Iterable[int], mode: str, algorithm: str, optimal: bool = False,
            objective: str | None = None, value: int | None = None) -> Certificate:
    """A solver's answer ``s``, checked by :func:`verify_set` in ``mode`` and
    labelled with the ``algorithm`` and its claims; a failed check raises
    RuntimeError."""
    cert = verify_set(g, s, mode)
    if not cert.all_checks_pass():
        raise RuntimeError(f"{algorithm} produced an invalid set: {cert.checks}")
    return cert._replace(algorithm=algorithm, optimal=optimal, objective=objective,
                         value=value)
