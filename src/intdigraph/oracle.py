"""Brute-force reference implementations.

Everything here is written for transparency, not speed: backtracking and
subset enumeration whose correctness can be read off the definitions.
Each oracle refuses inputs beyond its budget instead of degrading.

Vertex sets are Python-int bit masks, bit v for vertex v: one mask per
vertex for its neighbourhood, ORed along a search.  Search order and tie
rule fix each answer: the kernel and independent-set backtracks take
vertex 0, 1, ... before skipping it and record only a strictly better
value; the absorbing and red-blue oracles return the smallest cover,
first in ``combinations`` order; the scans return the first witness in
lexicographic order.
"""

from __future__ import annotations

import time
from itertools import combinations, permutations
from typing import Iterable, NamedTuple, Optional

from .errors import BudgetExceeded
from .graphs import Certificate, Digraph, UndirectedGraph, certify, check_weights
from .ordering import (Ordering, check_reflexive_interval_ordering,
                       verify_duf_ordering)
from .pointpoint import AntiWalkWitness


class OracleBudget(NamedTuple):
    """Hard caps per problem family plus an optional wall-clock cap."""

    subset_n: int = 16
    perm_n: int = 8
    k33_n: int = 30
    time_cap_s: Optional[float] = None


DEFAULT_BUDGET = OracleBudget()


class _Deadline:
    """The budget's time cap, checked once every ``period`` calls of :meth:`tick`."""
    __slots__ = ("at", "period", "ticks")

    def __init__(self, budget: OracleBudget, period: int = 4096):
        self.at = None if budget.time_cap_s is None else time.monotonic() + budget.time_cap_s
        self.period, self.ticks = period, 0

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks % self.period == 0:
            self.check()

    def check(self) -> None:
        if self.at is not None and time.monotonic() > self.at:
            raise BudgetExceeded("oracle time cap exceeded")


def _refuse(kind: str, n: int, limit: int) -> None:
    if n > limit:
        raise BudgetExceeded(f"{kind} oracle limited to n <= {limit}, got {n}")


def _masks(lists: Iterable[Iterable[int]]) -> list[int]:
    """One int per list, with bit v set for each (distinct) member v."""
    return [sum(1 << v for v in members) for members in lists]


def _first_cover(masks: list[int], full: int, budget: OracleBudget
                 ) -> Optional[tuple[int, ...]]:
    """The smallest index subset whose masks OR to ``full``, first in
    :func:`itertools.combinations` order, or None when no subset does."""
    deadline = _Deadline(budget)
    for r in range(len(masks) + 1):
        for comb in combinations(range(len(masks)), r):
            deadline.tick()
            covered = 0
            for i in comb:
                covered |= masks[i]
            if covered == full:
                return comb
    return None


def brute_kernel(g: Digraph, objective: str = "exists",
                 weights: Optional[Iterable[int]] = None,
                 budget: OracleBudget = DEFAULT_BUDGET) -> Optional[Certificate]:
    """Kernel existence / minimum / maximum by independent-set backtracking.

    Enumerates independent sets vertex by vertex, tracking the mask of
    vertices that are chosen or have a chosen out-neighbour; a leaf where
    it is full is a kernel.  For 'min', a branch is cut once every vertex
    is absorbed (weights are non-negative, supersets cannot improve) or
    once it cannot beat the incumbent.
    """
    if objective not in ("exists", "min", "max"):
        raise ValueError(f"objective must be exists/min/max, got {objective!r}")
    _refuse("kernel", g.n, budget.subset_n)
    deadline = _Deadline(budget)
    n = g.n
    w = check_weights(weights, n)
    ins, outs = _masks(g.in_adj), _masks(g.out_adj)
    absorbs = [ins[v] | 1 << v for v in range(n)]
    clash = [ins[v] | outs[v] for v in range(n)]
    full = (1 << n) - 1
    chosen: list[int] = []
    best_val, best_set = None, ()

    def dfs(idx: int, absorbed: int, blocked: int, val: int) -> bool:
        nonlocal best_val, best_set
        deadline.tick()
        if absorbed == full and (objective != "max" or idx == n):
            if best_val is None or (val > best_val if objective == "max" else val < best_val):
                best_val, best_set = val, tuple(chosen)
            return objective == "exists"  # for 'min', supersets cannot be lighter
        if idx == n or objective == "min" and best_val is not None and val >= best_val:
            return False
        if not blocked >> idx & 1:
            chosen.append(idx)
            if dfs(idx + 1, absorbed | absorbs[idx], blocked | clash[idx], val + w[idx]):
                return True
            chosen.pop()
        return dfs(idx + 1, absorbed, blocked, val)

    dfs(0, 0, 0, 0)
    if best_val is None:
        return None
    exists = objective == "exists"
    return certify(g, best_set, "kernel", "brute-kernel", optimal=not exists,
                   objective=None if exists else objective, value=best_val)


def brute_min_absorbing(g: Digraph, budget: OracleBudget = DEFAULT_BUDGET) -> Certificate:
    """Minimum absorbing set: subsets by increasing size, first hit wins."""
    _refuse("absorbing", g.n, budget.subset_n)
    closed_in = [mask | 1 << v for v, mask in enumerate(_masks(g.in_adj))]
    comb = _first_cover(closed_in, (1 << g.n) - 1, budget)
    return certify(g, comb, "absorbing", "brute-absorbing", optimal=True,
                   objective="min", value=len(comb))


def brute_max_independent(g: Digraph, weights: Optional[Iterable[int]] = None,
                          budget: OracleBudget = DEFAULT_BUDGET) -> Certificate:
    """Maximum-weight independent set by branch and bound."""
    _refuse("independent-set", g.n, budget.subset_n)
    deadline = _Deadline(budget)
    n = g.n
    w = check_weights(weights, n)
    clash = [i | o for i, o in zip(_masks(g.in_adj), _masks(g.out_adj))]
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + w[v]
    chosen: list[int] = []
    best_val, best_set = -1, ()

    def dfs(idx: int, blocked: int, val: int) -> None:
        nonlocal best_val, best_set
        deadline.tick()
        if val > best_val:
            best_val, best_set = val, tuple(chosen)
        if idx == n or val + suffix[idx] <= best_val:
            return
        if not blocked >> idx & 1:
            chosen.append(idx)
            dfs(idx + 1, blocked | clash[idx], val + w[idx])
            chosen.pop()
        dfs(idx + 1, blocked, val)

    dfs(0, 0, 0)
    return certify(g, best_set, "independent", "brute-independent", optimal=True,
                   objective="max", value=best_val)


def brute_red_blue(instance, budget: OracleBudget = DEFAULT_BUDGET) -> Optional[Certificate]:
    """Minimum A-dominating subset of B by increasing-size enumeration.

    Accepts an :class:`IntervalBigraphRep` only; each B vertex's mask is
    read off the columns.  Returns None exactly when some A-vertex is isolated.
    """
    from .domination import IntervalBigraphRep
    if not isinstance(instance, IntervalBigraphRep):
        raise TypeError(f"expected IntervalBigraphRep, got {type(instance)}")
    _refuse("red-blue", instance.b_size, budget.subset_n)
    a_ends = list(zip(instance.a_lo, instance.a_hi))
    meets = [[a for a, (lo, hi) in enumerate(a_ends) if b_lo <= hi and lo <= b_hi]
             for b_lo, b_hi in zip(instance.b_lo, instance.b_hi)]
    if len(set().union(*meets)) < len(a_ends):
        return None  # without this, every subset of B would be tried
    comb = _first_cover(_masks(meets), (1 << len(a_ends)) - 1, budget)
    if len(set().union(*(meets[j] for j in comb))) < len(a_ends):
        raise RuntimeError(f"red-blue oracle produced a set that misses an A-vertex: {comb}")
    return Certificate(vertices=comb, checks={"a-dominating": True},
                       algorithm="brute-red-blue", optimal=True,
                       objective="min", value=len(comb))


def find_induced_k33(h: UndirectedGraph, budget: OracleBudget = DEFAULT_BUDGET
                     ) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Two disjoint independent triples joined by all nine cross edges.

    Exhausts every 3+3 split: one side ranges over all independent triples
    in lexicographic order, the other over independent triples inside the
    common neighbourhood of the first.  A 6-subset induces exactly this
    pattern iff it induces a complete bipartite 3x3 graph.
    """
    _refuse("k33", h.n, budget.k33_n)
    deadline = _Deadline(budget, 1024)
    n = h.n
    mask = _masks(h.adj)
    for a in range(n):
        for b in range(a + 1, n):
            if mask[a] >> b & 1:
                continue
            for c in range(b + 1, n):
                deadline.tick()
                if (mask[a] >> c & 1) or (mask[b] >> c & 1):
                    continue
                common = mask[a] & mask[b] & mask[c]
                if common.bit_count() < 3:
                    continue
                members = [v for v in range(n) if common >> v & 1]
                for x, y, z in combinations(members, 3):
                    if (mask[x] >> y & 1) or (mask[x] >> z & 1) or (mask[y] >> z & 1):
                        continue
                    return ((a, b, c), (x, y, z))
    return None


def brute_ordering_search(g: Digraph, kind: str = "duf",
                          budget: OracleBudget = DEFAULT_BUDGET) -> Optional[Ordering]:
    """First permutation (lexicographic) passing the requested check."""
    if kind not in ("duf", "reflexive-interval"):
        raise ValueError(f"kind must be 'duf' or 'reflexive-interval', got {kind!r}")
    _refuse("ordering-search", g.n, budget.perm_n)
    deadline = _Deadline(budget, 256)
    for perm in permutations(range(g.n)):
        deadline.tick()
        ordering = Ordering(perm)
        if kind == "duf":
            if verify_duf_ordering(g, ordering) is None:
                return ordering
        else:
            if check_reflexive_interval_ordering(g, ordering, find_witness=False) is None:
                return ordering
    return None


def brute_anti_directed_walk(g: Digraph, budget: OracleBudget = DEFAULT_BUDGET
                             ) -> Optional[AntiWalkWitness]:
    """The first anti-directed walk (a, b, c, d) over all vertex quadruples
    in lexicographic order, or None; the slow reference for
    :func:`~intdigraph.pointpoint.find_anti_directed_walk`.  An O(n^4)
    scan, capped by the other polynomial scan's ``k33_n``."""
    _refuse("anti-walk", g.n, budget.k33_n)
    deadline = _Deadline(budget, 1024)
    n = g.n
    outs = [mask | g.loops[v] << v for v, mask in enumerate(_masks(g.out_adj))]
    for a in range(n):
        for b in range(n):
            if not outs[a] >> b & 1:
                continue
            for c in range(n):
                deadline.tick()
                if c == a or not outs[c] >> b & 1:
                    continue
                ds = outs[c] & ~outs[a] & ~(1 << b)
                if ds:
                    return AntiWalkWitness(a, b, c, (ds & -ds).bit_length() - 1)
    return None
