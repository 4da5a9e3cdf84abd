"""Point-point digraphs: recognition, subdivisions, and set lift/project.

A digraph has a representation by degenerate (single-point) intervals
exactly when its splitting bigraph is a disjoint union of complete
bipartite graphs, equivalently when no anti-directed walk of length 3
exists: arcs (a,b), (c,b), (c,d) present with (a,d) absent.  The recognizer
decides in O(n + m) by interning each vertex's out-list (its left
neighbourhood in the splitting bigraph) and checking that the distinct
lists are disjoint; the list ids are the component ids and serve as the
source points and their members' target points.  Only a rejection reads
the in-lists, to find the witness.  Either answer is re-checked, in O(n + m).

Subdividing every arc of a loopless digraph through k fresh vertices
always yields a point-point digraph.  For even k, kernels and absorbing
sets transfer between the original digraph and its subdivision with a
fixed size offset of (k/2)·m, witnessed constructively by
:func:`lift_set` and :func:`project_set`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from typing import Iterable, NamedTuple, Optional

from .errors import InvalidCertificate, NotIrreflexive, OddSubdivision
from .graphs import Digraph, certify, verify_set


class PointRep(NamedTuple):
    """Per-vertex source/target points; edge (u, v) iff s_points[u] == t_points[v]."""

    s_points: tuple[int, ...]
    t_points: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.s_points)

    def realize_digraph(self) -> Digraph:
        """O(n + m): the vertices are bucketed by target point once, and u's
        heads are the bucket of its source point."""
        heads: dict[int, list[int]] = {}
        for v, point in enumerate(self.t_points):
            heads.setdefault(point, []).append(v)
        return Digraph(self.n, ((u, v) for u, point in enumerate(self.s_points)
                                for v in heads.get(point, ())))

    def holds_in(self, g: Digraph) -> bool:
        """Whether these points represent exactly ``g``, in O(n + m) and
        without realizing a digraph: every arc and every loop joins equal
        points, and the (u, v) pairs with equal points number ``g.m`` plus
        the loops, so no other pair has them."""
        s, t, loops = self.s_points, self.t_points, g.loops
        if len(s) != g.n or len(t) != g.n:
            return False
        for point, heads in zip(s, g.out_adj):
            for v in heads:
                if t[v] != point:
                    return False
        if any(loops[v] and s[v] != t[v] for v in range(g.n)):
            return False
        tails = Counter(s)
        return sum(map(tails.__getitem__, t)) == g.m + sum(loops)


class AntiWalkWitness(NamedTuple):
    """Vertices with (a,b), (c,b), (c,d) arcs present and (a,d) absent.

    Not necessarily distinct, but always a != c and b != d."""

    a: int
    b: int
    c: int
    d: int

    def holds_in(self, g: Digraph) -> bool:
        return (self.a != self.c and self.b != self.d
                and g.has_edge(self.a, self.b) and g.has_edge(self.c, self.b)
                and g.has_edge(self.c, self.d) and not g.has_edge(self.a, self.d))


def _with_self(adj: tuple[int, ...], v: int, looped: bool) -> tuple[int, ...]:
    """The sorted list ``adj`` with ``v`` inserted when ``looped``: the
    neighbours of v's copy in the splitting bigraph."""
    if not looped:
        return adj
    i = bisect_left(adj, v)
    return adj[:i] + (v,) + adj[i:]


def _incomplete_component_walk(g: Digraph) -> AntiWalkWitness:
    """The witness of the first splitting-bigraph component that is not
    complete bipartite.

    Components are labelled by one DFS over ``g``'s own lists and ordered by
    their smallest node (left copies 0..n-1 before right copies, which on
    their own always form a complete component).  Inside the first
    incomplete one, its left copies are scanned in order, each in adjacency
    order, for a neighbour pair that fails to close the block."""
    n, loops = g.n, g.loops
    left = [_with_self(g.out_adj[u], u, loops[u]) for u in range(n)]
    right = [_with_self(g.in_adj[v], v, loops[v]) for v in range(n)]
    seen_left, seen_right = [False] * n, [False] * n
    for start in range(n):
        if seen_left[start]:
            continue
        seen_left[start] = True
        stack = [start]
        xs, y_count, edge_count = [], 0, 0
        while stack:
            node = stack.pop()
            if node < n:
                xs.append(node)
                edge_count += len(left[node])
                for v in left[node]:
                    if not seen_right[v]:
                        seen_right[v] = True
                        stack.append(n + v)
            else:
                y_count += 1
                for u in right[node - n]:
                    if not seen_left[u]:
                        seen_left[u] = True
                        stack.append(u)
        if edge_count == len(xs) * y_count:
            continue
        for u in sorted(xs):
            for v in left[u]:
                for first in right[v]:
                    for last in left[u]:
                        if not g.has_edge(first, last):
                            return AntiWalkWitness(a=first, b=v, c=u, d=last)
        raise RuntimeError(f"the component of {start} is incomplete but no witness found")
    raise RuntimeError("no incomplete component in a digraph that is not point-point")


def recognize_point_point(g: Digraph):
    """A :class:`PointRep` when ``g`` is a point-point digraph, otherwise
    an :class:`AntiWalkWitness` from the first non-complete component of
    the splitting bigraph.  Either answer is re-checked against ``g``
    (``holds_in``, O(n + m)); a failed check raises ``RuntimeError``.
    """
    result = _decide_point_point(g)
    if not result.holds_in(g):
        raise RuntimeError(f"point-point recognizer produced a {type(result).__name__} "
                           "that does not hold in the digraph")
    return result


def _decide_point_point(g: Digraph):
    """The answer of :func:`recognize_point_point`, not yet checked.

    One interning pass over the out-lists decides in O(n + m).  ``A_u``,
    the out-list of u with u added when looped, is u's left neighbourhood
    in the splitting bigraph; each distinct non-empty ``A_u`` gets one id
    from one dict, and each member of a new distinct list takes its id as
    a target point.  The bigraph is a disjoint union of complete bipartite
    graphs iff the distinct lists are pairwise disjoint, so a member that
    already holds a point rejects.  The ids are the component ids, in the
    order of each component's smallest node: left copies 0..n-1 in turn,
    an empty ``A_u`` taking an id of its own, then each right copy left
    without a point (no in-neighbour, no loop), in vertex order.  Only a
    rejection reads the in-lists, to label components for the witness.
    """
    loops = g.loops
    ids: dict[tuple[int, ...], int] = {}
    s_points: list[int] = []
    t_points: list[Optional[int]] = [None] * g.n
    next_id = 0
    for u, heads in enumerate(g.out_adj):
        if loops[u]:
            heads = _with_self(heads, u, True)
        elif not heads:
            s_points.append(next_id)
            next_id += 1
            continue
        cid = ids.setdefault(heads, next_id)
        if cid == next_id:
            next_id += 1
            for v in heads:
                if t_points[v] is not None:  # two distinct lists overlap
                    return _incomplete_component_walk(g)
                t_points[v] = cid
        s_points.append(cid)
    for v, point in enumerate(t_points):
        if point is None:
            t_points[v] = next_id
            next_id += 1
    return PointRep(s_points=tuple(s_points), t_points=tuple(t_points))


def find_anti_directed_walk(g: Digraph) -> Optional[AntiWalkWitness]:
    """A witness iff one exists (iff recognition rejects); None otherwise.

    :func:`intdigraph.oracle.brute_anti_directed_walk` is the slow
    reference."""
    result = recognize_point_point(g)
    return result if isinstance(result, AntiWalkWitness) else None


class SubdivisionMap(NamedTuple):
    """A subdivision host plus the per-arc paths that created it.

    ``paths[(i, j)]`` lists the k fresh vertices replacing arc (i, j), in
    path order from i to j.  Host vertices [0, origin.n) are the original
    ones; |V(host)| = n + k·m and |E(host)| = (k+1)·m.
    """

    origin: Digraph
    host: Digraph
    k: int
    paths: dict[tuple[int, int], tuple[int, ...]]


def k_subdivision(g: Digraph, k: int) -> SubdivisionMap:
    """Replace every arc by a directed path through k fresh vertices."""
    if k < 1:
        raise ValueError(f"subdivision needs k >= 1, got {k}")
    for v in range(g.n):
        if g.loops[v]:
            raise NotIrreflexive(v)
    arcs = []
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    nxt = g.n
    for (u, v) in g.edges():
        fresh = tuple(range(nxt, nxt + k))
        nxt += k
        paths[(u, v)] = fresh
        chain = (u,) + fresh + (v,)
        arcs.extend(zip(chain, chain[1:]))
    host = Digraph(nxt, arcs)
    return SubdivisionMap(origin=g, host=host, k=k, paths=paths)


def _require_even(sub: SubdivisionMap) -> int:
    if sub.k % 2 != 0:
        raise OddSubdivision(f"lift/project need an even subdivision, got k={sub.k}")
    return sub.k // 2


def _require_valid(g: Digraph, s: Iterable[int], mode: str) -> set[int]:
    if mode not in ("kernel", "absorbing"):
        raise ValueError(f"mode must be 'kernel' or 'absorbing', got {mode!r}")
    cert = verify_set(g, s, mode)
    if not cert.all_checks_pass():
        raise InvalidCertificate(f"input set fails {mode} check: {cert.checks}")
    return set(cert.vertices)


def lift_set(sub: SubdivisionMap, s: Iterable[int], mode: str = "kernel") -> tuple[int, ...]:
    """Lift a kernel/absorbing set of the origin into the even-k host.

    Along each arc path, even positions are taken when the arc's head is
    outside the set and odd positions when it is inside; the result has
    exactly |s| + (k/2)·m vertices and keeps the claimed property.
    """
    half = _require_even(sub)
    sset = _require_valid(sub.origin, s, mode)
    lifted = set(sset)
    for (i, j), path in sub.paths.items():
        if j in sset:
            lifted.update(path[0::2])  # positions 1, 3, ..., k-1
        else:
            lifted.update(path[1::2])  # positions 2, 4, ..., k
    result = tuple(sorted(lifted))
    if len(result) != len(sset) + half * sub.origin.m:
        raise RuntimeError(f"lifted set has {len(result)} vertices, expected "
                           f"{len(sset) + half * sub.origin.m}")
    return certify(sub.host, result, mode, "lift").vertices


def project_set(sub: SubdivisionMap, s_host: Iterable[int], mode: str = "kernel") -> tuple[int, ...]:
    """Project a kernel/absorbing set of the even-k host back to the origin.

    Kernels restrict cleanly (path vertices alternate, exactly k/2 per
    arc).  Absorbing sets are first normalized: any path holding more than
    k/2 chosen vertices is rewritten to its odd positions plus the arc's
    head, after which the restriction to original vertices absorbs and the
    size drops by at least (k/2)·m.
    """
    half = _require_even(sub)
    sset = _require_valid(sub.host, s_host, mode)
    n = sub.origin.n
    if mode == "kernel":
        result = tuple(sorted(v for v in sset if v < n))
        if len(result) != len(sset) - half * sub.origin.m:
            raise RuntimeError(f"projected kernel has {len(result)} vertices, expected "
                               f"{len(sset) - half * sub.origin.m}")
    else:
        working = set(sset)
        for (i, j), path in sub.paths.items():
            chosen_on_path = [w for w in path if w in working]
            if len(chosen_on_path) > half:
                working.difference_update(chosen_on_path)
                working.update(path[0::2])
                working.add(j)
        result = tuple(sorted(v for v in working if v < n))
        if len(result) > len(sset) - half * sub.origin.m:
            raise RuntimeError(f"projected absorbing set has {len(result)} vertices, "
                               f"more than {len(sset) - half * sub.origin.m}")
    return certify(sub.origin, result, mode, "project").vertices
