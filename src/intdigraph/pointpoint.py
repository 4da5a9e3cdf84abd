"""Point-point digraphs: recognition, subdivisions, and set lift/project.

A digraph has a representation by degenerate (single-point) intervals
exactly when its splitting bigraph is a disjoint union of complete
bipartite graphs, equivalently when no anti-directed walk of length 3
exists: arcs (a,b), (c,b), (c,d) present with (a,d) absent.  Component
labelling gives a linear-time recognizer; the component ids themselves
serve as the points.

Subdividing every arc of a loopless digraph through k fresh vertices
always yields a point-point digraph.  For even k, kernels and absorbing
sets transfer between the original digraph and its subdivision with a
fixed size offset of (k/2)·m, witnessed constructively by
:func:`lift_set` and :func:`project_set`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .errors import InvalidCertificate, NotIrreflexive, OddSubdivision
from .graphs import Digraph, verify_set
from .domination import splitting_bigraph


class PointRep(NamedTuple):
    """Per-vertex source/target points; edge (u, v) iff s_points[u] == t_points[v]."""

    s_points: tuple[int, ...]
    t_points: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.s_points)

    def realize_digraph(self) -> Digraph:
        edges = [(u, v) for u in range(self.n) for v in range(self.n)
                 if self.s_points[u] == self.t_points[v]]
        return Digraph(self.n, edges)


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


def _split_components(g: Digraph):
    """Components of the splitting bigraph; nodes 0..n-1 are left copies,
    n..2n-1 right copies.  Ids follow the smallest contained node."""
    big, _ = splitting_bigraph(g)
    n = g.n
    comp = [-1] * (2 * n)
    comps: list[dict] = []
    for start in range(2 * n):
        if comp[start] != -1:
            continue
        cid = len(comps)
        stack = [start]
        comp[start] = cid
        x_nodes, y_nodes, edge_count = [], [], 0
        while stack:
            node = stack.pop()
            if node < n:
                x_nodes.append(node)
                edge_count += len(big.adj_a[node])
                nbrs = [n + b for b in big.adj_a[node]]
            else:
                y_nodes.append(node - n)
                nbrs = list(big.adj_b[node - n])
            for w in nbrs:
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
        comps.append({"x": sorted(x_nodes), "y": sorted(y_nodes),
                      "edges": edge_count})
    return big, comp, comps


def recognize_point_point(g: Digraph):
    """A :class:`PointRep` when ``g`` is a point-point digraph, otherwise
    an :class:`AntiWalkWitness` extracted from the first non-complete
    component of the splitting bigraph."""
    big, comp, comps = _split_components(g)
    n = g.n
    for cid, c in enumerate(comps):
        if c["edges"] == len(c["x"]) * len(c["y"]):
            continue
        # Some edge of this component has a neighbour pair that fails to
        # close into a complete bipartite block; scan in adjacency order.
        for u in c["x"]:
            for v in big.adj_a[u]:
                for first in big.adj_b[v]:
                    for last in big.adj_a[u]:
                        if not g.has_edge(first, last):
                            return AntiWalkWitness(a=first, b=v, c=u, d=last)
        raise RuntimeError(f"component {cid} is incomplete but no witness found")
    return PointRep(s_points=tuple(comp[u] for u in range(n)),
                    t_points=tuple(comp[n + v] for v in range(n)))


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
    cert = verify_set(sub.host, result, mode)
    if not cert.all_checks_pass():
        raise RuntimeError(f"lifted set fails {mode} check: {cert.checks}")
    return result


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
    cert = verify_set(sub.origin, result, mode)
    if not cert.all_checks_pass():
        raise RuntimeError(f"projected set fails {mode} check: {cert.checks}")
    return result
