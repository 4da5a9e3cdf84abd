"""The frontier-walk forward sweep, the counting independence check, its
byte-line pair count and the adjacency-only graph types against the segment
tree and the counting forward pass, the active-set sweep, the bisection and
count-line counts and the arc sets kept in ``sweep_reference``; the
splitting bigraph's adjacency lists against the split of that arc set."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, UndirectedGraph, normalize,
                        set_is_independent, underlying_undirected, z_sequence)
from intdigraph.generators import gen_reflexive_interval
from intdigraph.intervals import below_counts, meeting_pairs
from intdigraph.pointpoint import k_subdivision

import sweep_reference as ref
from conftest import interval_reps, random_adjusted_rep
from fixtures import induced_subgraph, reverse, splitting_bigraph, symmetric_digraph


@st.composite
def reflexive_reps(draw):
    """Reflexive reps with n <= 60: on tiny tied grids, on the default grid,
    or adjusted (S and T share their left endpoint)."""
    n = draw(st.integers(0, 60))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["grid", "default", "adjusted"]))
    if kind == "adjusted":
        return random_adjusted_rep(n, random.Random(seed),
                                   draw(st.sampled_from([0, 2, None])))
    grid = draw(st.sampled_from([0, 1, 2, 5])) if kind == "grid" else None
    return gen_reflexive_interval(n, seed, grid=grid,
                                  max_len=draw(st.sampled_from([1, 3, None])))


@settings(max_examples=400, deadline=None)
@given(reflexive_reps())
def test_z_sequence_matches_the_segment_tree(rep):
    """The picks are the former counting pass's vertices, and that pass's
    picks, removal counts and right ends are the segment tree's."""
    former = ref.below_counts_z_sequence(rep)
    assert z_sequence(rep) == former.vertices
    assert former == ref.z_sequence(rep)


@settings(max_examples=200, deadline=None)
@given(st.one_of(interval_reps(max_n=12), reflexive_reps()), st.data())
def test_set_is_independent_matches_the_active_set_sweep(rep, data):
    ids = st.integers(0, rep.n - 1) if rep.n else st.nothing()
    s = data.draw(st.lists(ids, max_size=min(rep.n, 5)))
    assert set_is_independent(rep, s) == ref.set_is_independent(rep, s)
    nrep = normalize(rep)
    for r in (nrep, nrep.swapped()):
        for members in (set(), set(s), range(rep.n)):
            assert (meeting_pairs(r, members) == ref.meeting_pairs(r, members)
                    == ref.count_line_meeting_pairs(r, members))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(lambda size: st.tuples(
    st.just(size), st.permutations(range(size)), st.integers(0, size), st.integers(0, size))))
def test_below_counts_matches_the_count_line(drawn):
    """Disjoint marked and queried ranks, the queries in any order."""
    size, ranks, cut, end = drawn
    marked, queried = ranks[:cut], ranks[cut:max(cut, end)]
    line = ref.count_line(size, marked)
    assert (list(below_counts(size, iter(marked), queried))
            == [line[q] for q in sorted(queried)])


def _pairs(n, m):
    """Every (u, v) in [-1, n] x [-1, m], out-of-range ids included."""
    return [(u, v) for u in range(-1, n + 1) for v in range(-1, m + 1)]


def _same_digraph(g, r):
    assert (g.n, g.m, g.loops) == (r.n, r.m, r.loops)
    assert (g.out_adj, g.in_adj) == (r.out_adj, r.in_adj)
    assert list(g.edges()) == list(r.edges())


def _same_undirected(h, r):
    assert (h.n, h.m, h.adj) == (r.n, r.m, r.adj)
    assert list(h.edges()) == list(r.edges())


@st.composite
def edge_lists(draw, n, m=None, loops=True):
    """Random pairs with repeats (and self pairs when ``loops``)."""
    m = n if m is None else m
    if n == 0 or m == 0:
        return []
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, m - 1))
    if not loops:
        pairs = pairs.filter(lambda e: e[0] != e[1])
    return draw(st.lists(pairs, max_size=3 * (n + m)))


@st.composite
def digraph_cases(draw):
    n = draw(st.integers(0, 9))
    return n, draw(edge_lists(n)), draw(st.lists(st.integers(0, max(n - 1, 0)),
                                                 max_size=n))


@settings(max_examples=200, deadline=None)
@given(digraph_cases(), st.data())
def test_digraph_matches_the_arc_set(case, data):
    n, edges, loops = case
    g, r = Digraph(n, edges, loops), ref.Digraph(n, edges, loops)
    _same_digraph(g, r)
    for u, v in _pairs(n, n):
        if u != v or 0 <= u < n:  # the reference wraps a loop query at -1
            assert g.has_edge(u, v) == r.has_edge(u, v), (u, v)
    twin = Digraph(n, list(reversed(edges)), loops)
    assert g == twin and hash(g) == hash(twin)
    other = Digraph(n, edges[1:], loops)
    assert (g == other) == (r == ref.Digraph(n, edges[1:], loops))
    _same_digraph(reverse(g), ref.reverse(r))
    keep = data.draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n) if n
                     else st.just([]))
    (sub, relabel), (rsub, rrelabel) = induced_subgraph(g, keep), ref.induced_subgraph(r, keep)
    assert relabel == rrelabel
    _same_digraph(sub, rsub)
    _same_undirected(underlying_undirected(g), ref.underlying_undirected(r))
    (adj_a, adj_b), _ = splitting_bigraph(g)
    split = r._edges | {(v, v) for v in range(n) if r.loops[v]}
    assert [(a, b) for a, bs in enumerate(adj_a) for b in bs] == sorted(split)
    assert [(a, b) for b, tails in enumerate(adj_b) for a in tails] == sorted(
        split, key=lambda e: e[::-1])
    if not any(r.loops):
        sub2 = k_subdivision(g, 2)
        assert list(sub2.paths) == sorted(r._edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 9).flatmap(lambda n: st.tuples(st.just(n),
                                                     edge_lists(n, loops=False))))
def test_undirected_graph_matches_the_arc_set(case):
    n, edges = case
    h, r = UndirectedGraph(n, edges), ref.UndirectedGraph(n, edges)
    _same_undirected(h, r)
    for u, v in _pairs(n, n):
        assert h.has_edge(u, v) == r.has_edge(u, v), (u, v)
    twin = UndirectedGraph(n, [(v, u) for u, v in edges])
    assert h == twin and hash(h) == hash(twin)
    assert (h == UndirectedGraph(n, edges[1:])) == (r == ref.UndirectedGraph(n, edges[1:]))
    _same_digraph(symmetric_digraph(h), ref.symmetric_digraph(r))
