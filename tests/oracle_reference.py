"""The set-enumeration oracles as they were before they moved to bit
masks, kept verbatim as a differential reference.

They track the partial set with per-vertex counters and ``take``/``drop``
closures (kernel, independent set), test each subset against ``set``
membership (absorbing, red-blue) and scan quadruples with ``has_edge``
(anti-directed walk).  The red-blue search reads its A-adjacency off the
bigraph's coordinate columns through :meth:`Interval.intersects`.
``intdigraph.oracle`` now carries the same searches on Python-int bit
masks; ``test_oracle_reference.py`` checks that both
return the same whole :class:`Certificate` or witness.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Optional

from intdigraph.domination import IntervalBigraphRep
from intdigraph.graphs import Certificate, Digraph, check_weights, verify_set
from intdigraph.intervals import Interval
from intdigraph.oracle import DEFAULT_BUDGET, OracleBudget, _Deadline, _refuse
from intdigraph.pointpoint import AntiWalkWitness


def brute_kernel(g: Digraph, objective: str = "exists",
                 weights: Optional[Iterable[int]] = None,
                 budget: OracleBudget = DEFAULT_BUDGET) -> Optional[Certificate]:
    """Kernel existence / minimum / maximum by independent-set backtracking.

    Enumerates independent sets vertex by vertex, tracking how many
    vertices still lack a chosen out-neighbour; a leaf with none left is a
    kernel.  For 'min', a branch is cut once every vertex is absorbed
    (weights are non-negative, supersets cannot improve) or once it cannot
    beat the incumbent.
    """
    if objective not in ("exists", "min", "max"):
        raise ValueError(f"objective must be exists/min/max, got {objective!r}")
    _refuse("kernel", g.n, budget.subset_n)
    deadline = _Deadline(budget)
    n = g.n
    w = check_weights(weights, n)
    und = [set(g.out_adj[v]) | set(g.in_adj[v]) for v in range(n)]

    blocked = [0] * n
    absorbed = [0] * n
    chosen: list[int] = []
    chosen_flag = [False] * n
    state = {"unsat": n, "best_val": None, "best_set": None, "nodes": 0}

    def take(v: int) -> None:
        chosen_flag[v] = True
        chosen.append(v)
        if absorbed[v] == 0:
            state["unsat"] -= 1
        for u in g.in_adj[v]:
            absorbed[u] += 1
            if absorbed[u] == 1 and not chosen_flag[u]:
                state["unsat"] -= 1
        for u in und[v]:
            blocked[u] += 1

    def drop(v: int) -> None:
        chosen_flag[v] = False
        chosen.pop()
        if absorbed[v] == 0:
            state["unsat"] += 1
        for u in g.in_adj[v]:
            absorbed[u] -= 1
            if absorbed[u] == 0 and not chosen_flag[u]:
                state["unsat"] += 1
        for u in und[v]:
            blocked[u] -= 1

    def record(val: int) -> None:
        best = state["best_val"]
        if best is None or (val > best if objective == "max" else val < best):
            state["best_val"] = val
            state["best_set"] = tuple(sorted(chosen))

    def dfs(idx: int, val: int) -> bool:
        state["nodes"] += 1
        if state["nodes"] % 4096 == 0:
            deadline.check()
        if state["unsat"] == 0:
            if objective == "exists":
                record(val)
                return True
            if objective == "min":
                record(val)
                return False  # supersets cannot be lighter
        if idx == n:
            if state["unsat"] == 0:
                record(val)
            return False
        if objective == "min" and state["best_val"] is not None and val >= state["best_val"]:
            return False
        if blocked[idx] == 0:
            take(idx)
            if dfs(idx + 1, val + w[idx]):
                return True
            drop(idx)
        return dfs(idx + 1, val)

    dfs(0, 0)
    if state["best_set"] is None:
        return None
    vertices = state["best_set"]
    cert = verify_set(g, vertices, "kernel")
    if not cert.all_checks_pass():
        raise RuntimeError(f"kernel oracle produced an invalid set: {cert.checks}")
    return Certificate(vertices=vertices, checks=cert.checks,
                       algorithm="brute-kernel",
                       optimal=objective != "exists",
                       objective=None if objective == "exists" else objective,
                       value=state["best_val"])


def brute_min_absorbing(g: Digraph, budget: OracleBudget = DEFAULT_BUDGET) -> Certificate:
    """Minimum absorbing set: subsets by increasing size, first hit wins."""
    _refuse("absorbing", g.n, budget.subset_n)
    deadline = _Deadline(budget)
    n = g.n
    ticks = 0
    for r in range(n + 1):
        for comb in combinations(range(n), r):
            ticks += 1
            if ticks % 4096 == 0:
                deadline.check()
            sset = set(comb)
            if all(v in sset or any(u in sset for u in g.out_adj[v]) for v in range(n)):
                cert = verify_set(g, comb, "absorbing")
                if not cert.all_checks_pass():
                    raise RuntimeError(f"absorbing oracle produced an invalid set: "
                                       f"{cert.checks}")
                return Certificate(vertices=tuple(comb), checks=cert.checks,
                                   algorithm="brute-absorbing", optimal=True,
                                   objective="min", value=r)
    raise RuntimeError("the full vertex set always absorbs")


def brute_max_independent(g: Digraph, weights: Optional[Iterable[int]] = None,
                          budget: OracleBudget = DEFAULT_BUDGET) -> Certificate:
    """Maximum-weight independent set by branch and bound."""
    _refuse("independent-set", g.n, budget.subset_n)
    deadline = _Deadline(budget)
    n = g.n
    w = check_weights(weights, n)
    und = [set(g.out_adj[v]) | set(g.in_adj[v]) for v in range(n)]
    suffix = [0] * (n + 1)
    for v in range(n - 1, -1, -1):
        suffix[v] = suffix[v + 1] + w[v]

    best = {"val": -1, "set": ()}
    blocked = [0] * n
    chosen: list[int] = []
    nodes = [0]

    def dfs(idx: int, val: int) -> None:
        nodes[0] += 1
        if nodes[0] % 4096 == 0:
            deadline.check()
        if val > best["val"]:
            best["val"] = val
            best["set"] = tuple(sorted(chosen))
        if idx == n or val + suffix[idx] <= best["val"]:
            return
        if blocked[idx] == 0:
            chosen.append(idx)
            for u in und[idx]:
                blocked[u] += 1
            dfs(idx + 1, val + w[idx])
            for u in und[idx]:
                blocked[u] -= 1
            chosen.pop()
        dfs(idx + 1, val)

    dfs(0, 0)
    cert = verify_set(g, best["set"], "independent")
    if not cert.all_checks_pass():
        raise RuntimeError(f"independent-set oracle produced an invalid set: {cert.checks}")
    return Certificate(vertices=best["set"], checks=cert.checks,
                       algorithm="brute-independent", optimal=True,
                       objective="max", value=best["val"])


def brute_red_blue(instance, budget: OracleBudget = DEFAULT_BUDGET) -> Optional[Certificate]:
    """Minimum A-dominating subset of B by increasing-size enumeration.

    Accepts an :class:`IntervalBigraphRep` only; A vertex a meets the B
    vertices whose :class:`Interval` intersects its own.  Returns None
    exactly when some A-vertex is isolated.
    """
    if not isinstance(instance, IntervalBigraphRep):
        raise TypeError(f"expected IntervalBigraphRep, got {type(instance)}")
    _refuse("red-blue", instance.b_size, budget.subset_n)
    b_ivs = list(map(Interval, instance.b_lo, instance.b_hi))
    adj_a = [[b for b, b_iv in enumerate(b_ivs) if Interval(lo, hi).intersects(b_iv)]
             for lo, hi in zip(instance.a_lo, instance.a_hi)]
    deadline = _Deadline(budget)
    if any(len(adj_a[a]) == 0 for a in range(instance.a_size)):
        return None
    ticks = 0
    for r in range(instance.b_size + 1):
        for comb in combinations(range(instance.b_size), r):
            ticks += 1
            if ticks % 4096 == 0:
                deadline.check()
            sset = set(comb)
            if all(any(b in sset for b in adj_a[a]) for a in range(instance.a_size)):
                return Certificate(vertices=tuple(comb),
                                   checks={"a-dominating": True},
                                   algorithm="brute-red-blue", optimal=True,
                                   objective="min", value=r)
    raise RuntimeError("all of B dominates when no A-vertex is isolated")


def brute_anti_directed_walk(g: Digraph, budget: OracleBudget = DEFAULT_BUDGET
                             ) -> Optional[AntiWalkWitness]:
    """The first anti-directed walk (a, b, c, d) over all vertex quadruples
    in lexicographic order, or None; the slow reference for
    :func:`~intdigraph.pointpoint.find_anti_directed_walk`.  An O(n^4)
    scan, capped by the other polynomial scan's ``k33_n``."""
    _refuse("anti-walk", g.n, budget.k33_n)
    deadline = _Deadline(budget)
    n = g.n
    ticks = 0
    for a in range(n):
        for b in range(n):
            if not g.has_edge(a, b):
                continue
            for c in range(n):
                ticks += 1
                if ticks % 1024 == 0:
                    deadline.check()
                if c == a or not g.has_edge(c, b):
                    continue
                for d in range(n):
                    if d != b and g.has_edge(c, d) and not g.has_edge(a, d):
                        return AntiWalkWitness(a, b, c, d)
    return None
