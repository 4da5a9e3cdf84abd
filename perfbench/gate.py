"""The answer gate: every CLI output is parsed and re-checked.

Each returned set is re-checked with a definitional routine other than the
one the solver used for its own self-check: the sweeps check themselves
on the representation, so their answers are checked with
``graphs.verify_set`` on the realized digraph; the DPs check themselves
with ``verify_set``, so their answers are checked with the ``intervals``
set checks on the representation.  Every optimum is compared with a
reference computed at set-up by the near-linear routines below, which
share no code with the solvers.  The calls that must be rejected are
checked for the answer the definitions give: a ``violation`` citing the
only quadruple of the swapped three-vertex ordering, and ``pass`` false
with ``absorbing`` false for the kernel missing a vertex.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Optional

from intdigraph.graphs import Digraph, verify_set
from intdigraph.intervals import IntervalRep, set_is_absorbing, set_is_independent


# --------------------------------------------------------------------------
# references, computed on raw integer coordinates (closed intervals)


def min_cover_size(a_ivs, b_ivs) -> int:
    """Fewest B intervals meeting every A interval.

    Greedy: take the uncovered A interval that ends first and cover it
    with the B interval starting no later than that end that reaches
    furthest.  For absorbing sets A = sources and B = targets; for
    dominating sets the roles swap.
    """
    b_sorted = sorted((iv.lo, iv.hi) for iv in b_ivs)
    nxt, best_hi, reach, count = 0, None, None, 0
    for a in sorted(a_ivs, key=lambda iv: iv.hi):
        if reach is not None and a.lo <= reach:
            continue
        while nxt < len(b_sorted) and b_sorted[nxt][0] <= a.hi:
            if best_hi is None or b_sorted[nxt][1] > best_hi:
                best_hi = b_sorted[nxt][1]
            nxt += 1
        if best_hi is None or best_hi < a.lo:
            raise ValueError("an A interval meets no B interval")
        reach = best_hi
        count += 1
    return count


def _adjusted_order(rep: IntervalRep):
    """Positions by (left endpoint, vertex) and each position's reach.

    With lS = lT, the out- (in-) neighbours of u above it are exactly the
    positions whose left endpoint is at most r(S_u) (r(T_u)).
    """
    order = sorted(range(rep.n), key=lambda v: (rep.source[v].lo, v))
    lefts = [rep.source[v].lo for v in order]
    max_out = [bisect_right(lefts, rep.source[v].hi) - 1 for v in order]
    max_in = [bisect_right(lefts, rep.target[v].hi) - 1 for v in order]
    return order, max_out, max_in


def adjusted_kernel_value(rep: IntervalRep, weights, objective: str) -> int:
    """Min or max kernel weight of an adjusted representation.

    A kernel listed by position continues from i to a j in the range
    (max(max_out[i], max_in[i]), min over q > max_in[i] of max_out[q]],
    and starts at or below the smallest max_out.
    """
    n = rep.n
    if n == 0:
        return 0
    better = max if objective == "max" else min
    order, max_out, max_in = _adjusted_order(rep)
    suffix_min = [n] * (n + 1)
    for p in range(n - 1, -1, -1):
        suffix_min[p] = min(max_out[p], suffix_min[p + 1])
    values: list[Optional[int]] = [None] * n
    for i in range(n - 1, -1, -1):
        w = weights[order[i]]
        if max_in[i] == n - 1:
            values[i] = w
            continue
        lo = max(max_out[i], max_in[i]) + 1
        hi = min(suffix_min[max_in[i] + 1], n - 1)
        cands = [values[j] for j in range(lo, hi + 1) if values[j] is not None]
        if cands:
            values[i] = w + better(cands)
    starts = [v for v in values[:min(max_out) + 1] if v is not None]
    if not starts:
        raise ValueError("adjusted representation without a kernel")
    return better(starts)


def adjusted_mis_size(rep: IntervalRep) -> int:
    """Maximum independent set size of an adjusted representation.

    Two vertices are adjacent exactly when [l, max(r(S), r(T))] intervals
    meet, so this is interval scheduling by right end.
    """
    spans = sorted((max(s.hi, t.hi), s.lo) for s, t in zip(rep.source, rep.target))
    count, last = 0, None
    for hi, lo in spans:
        if last is None or lo > last:
            count, last = count + 1, hi
    return count


# --------------------------------------------------------------------------
# per-command answer checks


@dataclass
class Refs:
    """What the checks compare against, filled in at set-up."""

    sweep_graph: Digraph = None
    min_absorbing: int = 0
    min_dominating: int = 0
    dp_rep: IntervalRep = None
    dp_weights: list = None
    min_kernel: int = 0
    max_kernel: int = 0
    mis: int = 0
    dense_kernel: tuple = ()
    sub_graph: Digraph = None


def _vertex_set(payload: dict, n: int):
    s = payload.get("set")
    if not isinstance(s, list) or any(not isinstance(v, int) for v in s):
        return None, "no integer vertex list"
    if s != sorted(set(s)) or (s and not 0 <= s[0] <= s[-1] < n):
        return None, "vertex list not sorted, distinct and in range"
    if payload.get("size") != len(s):
        return None, f"size {payload.get('size')} but {len(s)} vertices"
    return s, None


def _graph_check(g: Callable[[Refs], Digraph], mode: str,
                 ref: Optional[Callable[[Refs], int]] = None):
    def check(refs: Refs, payload: dict) -> Optional[str]:
        s, problem = _vertex_set(payload, g(refs).n)
        if problem:
            return problem
        cert = verify_set(g(refs), s, mode)
        if not cert.all_checks_pass():
            return f"not {mode}: {cert.checks}"
        expected = ref(refs) if ref else None
        if expected is not None and not payload.get("value") == len(s) == expected:
            return f"size {len(s)}, value {payload.get('value')}, reference {expected}"
        return None
    return check


def _rep_check(kernel: bool, value: Callable[[Refs], int], weighted: bool = False):
    def check(refs: Refs, payload: dict) -> Optional[str]:
        rep = refs.dp_rep
        s, problem = _vertex_set(payload, rep.n)
        if problem:
            return problem
        if not set_is_independent(rep, s):
            return "not independent"
        if kernel and not set_is_absorbing(rep, s):
            return "not absorbing"
        weight = sum(refs.dp_weights[v] for v in s) if weighted else len(s)
        if not payload.get("value") == weight == value(refs):
            return f"weight {weight}, value {payload.get('value')}, reference {value(refs)}"
        return None
    return check


def _status(expected: str):
    def check(refs: Refs, payload: dict) -> Optional[str]:
        if payload.get("status") != expected:
            return f"status {payload.get('status')!r}, expected {expected!r}"
        return None
    return check


def _check_verify(refs: Refs, payload: dict) -> Optional[str]:
    if payload.get("pass") is not True or payload.get("checks") != {
            "independent": True, "absorbing": True}:
        return f"kernel rejected: {payload.get('checks')}"
    if payload.get("set") != list(refs.dense_kernel):
        return "verified a different set than the one given"
    return None


# The swapped path ordering 0 2 1 has one quadruple of positions, (0, 1, 1, 2),
# vertices (0, 2, 2, 1): arc 0 -> 1 spans 2, and neither 0 -> 2 nor 2 -> 1 is
# an arc.  That is the 'duf-out' umbrella, and patterns 'i' and 'ii' hold there.
SWAP_WITNESS = [0, 2, 2, 1]
EXIT_REJECTED = 2  # the CLI's exit code for a proven negative answer


def _rejected_ordering(kinds):
    def check(refs: Refs, payload: dict) -> Optional[str]:
        witness = payload.get("witness") or {}
        if (payload.get("status") != "violation" or witness.get("kind") not in kinds
                or witness.get("vertices") != SWAP_WITNESS):
            return f"swapped ordering not rejected as {kinds} at {SWAP_WITNESS}: {payload}"
        return None
    return check


def _check_verify_rejects(refs: Refs, payload: dict) -> Optional[str]:
    if payload.get("pass") is not False or payload.get("checks") != {
            "independent": True, "absorbing": False}:
        return f"kernel minus a vertex not rejected: {payload.get('checks')}"
    if payload.get("set") != list(refs.dense_kernel[1:]):
        return "verified a different set than the one given"
    return None


def _check_point_point(refs: Refs, payload: dict) -> Optional[str]:
    """The points realize exactly the host's arcs: every arc joins equal
    points, and the equal-point pairs number m (the host has no loops)."""
    g = refs.sub_graph
    if payload.get("status") != "point-point":
        return f"status {payload.get('status')!r}"
    pts = payload.get("points", {})
    s, t = pts.get("s"), pts.get("t")
    if not (isinstance(s, list) and isinstance(t, list) and len(s) == len(t) == g.n):
        return "points missing or of the wrong length"
    if any(s[u] != t[v] for u in range(g.n) for v in g.out_adj[u]):
        return "an arc joins different points"
    s_count, t_count = Counter(s), Counter(t)
    pairs = sum(k * t_count[p] for p, k in s_count.items())
    if pairs != g.m:
        return f"points realize {pairs} pairs, host has {g.m} arcs"
    return None


CHECKS = {
    "kernel": _graph_check(lambda r: r.sweep_graph, "kernel"),
    "absorbing": _graph_check(lambda r: r.sweep_graph, "absorbing",
                              lambda r: r.min_absorbing),
    "dominating": _graph_check(lambda r: r.sweep_graph, "dominating",
                               lambda r: r.min_dominating),
    "min_kernel": _rep_check(True, lambda r: r.min_kernel),
    "max_kernel": _rep_check(True, lambda r: r.max_kernel, weighted=True),
    "mis": _rep_check(False, lambda r: r.mis),
    "check_duf": _status("valid"),
    "min_kernel_adjusted": _rep_check(True, lambda r: r.min_kernel),
    "verify": _check_verify,
    "check_reflexive": _status("valid"),
    "recognize_pp": _check_point_point,
    "check_duf_rejects": _rejected_ordering(("duf-out",)),
    "check_reflexive_rejects": _rejected_ordering(("i", "ii")),
    "verify_rejects": _check_verify_rejects,
}
REJECTS = {"check_duf_rejects", "check_reflexive_rejects", "verify_rejects"}


class Gate:
    """Counts attempted and failed calls.

    A call fails on a wrong exit code (0, or ``EXIT_REJECTED`` for the
    calls in ``REJECTS``), output that is not JSON, a certificate whose own
    checks did not pass, or a failed answer check.
    """

    def __init__(self, refs: Refs):
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.answers: dict[str, dict] = {}

    def check(self, call: str, code: int, text: str) -> bool:
        self.attempted += 1
        problem = self._problem(call, code, text)
        if problem is None:
            return True
        self.failed += 1
        self.errors.append(f"{call}: {problem}")
        return False

    def _problem(self, call: str, code: int, text: str) -> Optional[str]:
        expected = EXIT_REJECTED if call in REJECTS else 0
        if code != expected:
            return f"exit code {code}, expected {expected}: {text[:200]!r}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "output is not JSON"
        if not isinstance(payload, dict):
            return "output is not a JSON object"
        if "certificate_checked" in payload and payload["certificate_checked"] is not True:
            return "certificate_checked is not true"
        problem = CHECKS[call](self.refs, payload)
        if problem is None:
            self.answers[call] = {k: payload[k] for k in ("size", "value", "status")
                                  if k in payload}
        return problem
