"""The former point-point recognizer, kept as a differential reference.

It builds the splitting bigraph of ``g`` with
:func:`fixtures.splitting_bigraph`, labels its components
by one DFS over the bigraph's adjacency, and accepts when every component
is complete bipartite.  The library now decides by interning each
vertex's out-list and labels components only on a rejection;
``test_pointpoint_reference.py`` checks that both give the same
:class:`PointRep` or the same :class:`AntiWalkWitness`.
"""

from __future__ import annotations

from intdigraph.graphs import Digraph
from intdigraph.pointpoint import AntiWalkWitness, PointRep

from fixtures import splitting_bigraph


def _split_components(g: Digraph):
    """Components of the splitting bigraph; nodes 0..n-1 are left copies,
    n..2n-1 right copies.  Ids follow the smallest contained node."""
    (adj_a, adj_b), _ = splitting_bigraph(g)
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
                edge_count += len(adj_a[node])
                nbrs = [n + b for b in adj_a[node]]
            else:
                y_nodes.append(node - n)
                nbrs = list(adj_b[node - n])
            for w in nbrs:
                if comp[w] == -1:
                    comp[w] = cid
                    stack.append(w)
        comps.append({"x": sorted(x_nodes), "y": sorted(y_nodes),
                      "edges": edge_count})
    return (adj_a, adj_b), comp, comps


def recognize_point_point(g: Digraph):
    """A :class:`PointRep` when ``g`` is a point-point digraph, otherwise
    an :class:`AntiWalkWitness` extracted from the first non-complete
    component of the splitting bigraph."""
    (adj_a, adj_b), comp, comps = _split_components(g)
    n = g.n
    for cid, c in enumerate(comps):
        if c["edges"] == len(c["x"]) * len(c["y"]):
            continue
        # Some edge of this component has a neighbour pair that fails to
        # close into a complete bipartite block; scan in adjacency order.
        for u in c["x"]:
            for v in adj_a[u]:
                for first in adj_b[v]:
                    for last in adj_a[u]:
                        if not g.has_edge(first, last):
                            return AntiWalkWitness(a=first, b=v, c=u, d=last)
        raise RuntimeError(f"component {cid} is incomplete but no witness found")
    return PointRep(s_points=tuple(comp[u] for u in range(n)),
                    t_points=tuple(comp[n + v] for v in range(n)))
