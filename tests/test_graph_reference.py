"""The counting representation check, the bucket-pass graph constructors,
the head-list fill and the realizing sweep against the realize-and-compare
check, the set-based and pair-based constructors, the former fill and the
former sweep kept in ``graph_reference``."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, Interval, IntervalRep, normalize,
                        realize_digraph, verify_representation)
from intdigraph.errors import InvalidVertex
from intdigraph.generators import gen_reflexive_interval

import graph_reference as ref
from conftest import interval_reps, random_adjusted_rep


@st.composite
def reps(draw):
    """Tied ``Fraction`` reps (loops optional), reflexive reps on tiny tied
    grids, and adjusted reps, with n <= 12; half of them normalized."""
    kind = draw(st.sampled_from(["fraction", "grid", "adjusted"]))
    if kind == "fraction":
        rep = draw(interval_reps(max_n=10))
    else:
        n = draw(st.integers(0, 12))
        seed = draw(st.integers(0, 2**32))
        if kind == "adjusted":
            rep = random_adjusted_rep(n, random.Random(seed),
                                      draw(st.sampled_from([0, 2, None])))
        else:
            rep = gen_reflexive_interval(n, seed, grid=draw(st.sampled_from([0, 1, 2, 5])),
                                         max_len=draw(st.sampled_from([1, 3])))
    return normalize(rep) if draw(st.booleans()) else rep


def _perturbed(g, kind, u, v):
    """``g`` with the pair (u, v) toggled (the loop of u when u = v), or
    with one loop moved from u to v."""
    arcs = set(g.edges())
    loops = set(g.loop_vertices())
    if kind == "toggle" and u != v:
        arcs ^= {(u, v)}
    elif kind == "toggle":
        loops ^= {u}
    elif kind == "move" and u in loops and v not in loops:
        loops = (loops - {u}) | {v}
    return Digraph(g.n, arcs, loops)


@settings(max_examples=400, deadline=None)
@given(reps(), st.sampled_from(["same", "toggle", "move"]), st.data())
def test_count_matches_realize_and_compare(rep, kind, data):
    g = realize_digraph(rep)
    if kind != "same" and g.n:
        u, v = data.draw(st.tuples(st.integers(0, g.n - 1), st.integers(0, g.n - 1)))
        g = _perturbed(g, kind, u, v)
    assert verify_representation(rep, g) == ref.verify_representation(rep, g)


def test_moved_loop_is_caught():
    # S_0 meets T_0 and S_1 misses T_1, so moving the loop from 0 to 1
    # keeps every arc and the number of meeting pairs
    rep = IntervalRep([(Interval(0, 1), Interval(0, 1)),
                       (Interval(2, 3), Interval(4, 5))])
    g = Digraph(2, loops=[1])
    assert not ref.verify_representation(rep, g)
    assert not verify_representation(rep, g)


@st.composite
def digraph_inputs(draw):
    """Edge lists with repeats, self pairs and untouched vertices, plus loops."""
    n = draw(st.integers(0, 9))
    if not n:
        return 0, [], []
    ids = st.integers(0, n - 1)
    return n, draw(st.lists(st.tuples(ids, ids), max_size=3 * n)), draw(
        st.lists(ids, max_size=n))


def _same_digraph(g, r):
    assert (g.n, g.m, g.loops) == (r.n, r.m, r.loops)
    assert (g.out_adj, g.in_adj) == (r.out_adj, r.in_adj)


@settings(max_examples=300, deadline=None)
@given(digraph_inputs())
def test_digraph_matches_the_set_constructor(case):
    n, edges, loops = case
    _same_digraph(Digraph(n, edges, loops), ref.Digraph(n, edges, loops))
    _same_digraph(Digraph(n, iter(edges), iter(loops)), ref.Digraph(n, edges, loops))


@settings(max_examples=300, deadline=None)
@given(digraph_inputs(), st.booleans())
def test_head_lists_match_the_constructor(case, with_flags):
    """The fill from head lists, loops given as self-arcs or as flags,
    equals ``Digraph(n, edges, loops)`` and the former pair-based fill."""
    n, edges, loops = case
    heads = [[] for _ in range(n)]
    for u, v in edges:
        heads[u].append(v)
    flags = None
    if with_flags:
        flags = [False] * n
        for v in loops:
            flags[v] = True
    else:
        for v in loops:
            heads[v].append(v)
    g = Digraph.from_heads(heads, flags)
    _same_digraph(g, Digraph(n, edges, loops))
    _same_digraph(g, ref.ArcDigraph(n, edges, loops))


@st.composite
def head_lists(draw):
    """Head lists on at most 9 vertices, most of them empty or of one head,
    with repeats and self-arcs, and loop flags or none."""
    n = draw(st.integers(0, 9))
    heads = [draw(st.lists(st.integers(0, n - 1), max_size=4)) for _ in range(n)]
    return heads, draw(st.none() | st.lists(st.booleans(), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None)
@given(head_lists())
@example(([[2, 1], [1], [2, 2], [3, 0, 3]], None))
def test_fill_matches_the_former_fill(case):
    """The fill that sorts only lists of two or more heads equals the
    former fill, which sorted and scanned every list."""
    heads, flags = case
    n = len(heads)
    g = Digraph.from_heads([list(vs) for vs in heads], None if flags is None else list(flags))
    expected = ref.fill([list(vs) for vs in heads],
                        [False] * n if flags is None else list(flags))
    assert (g.n, g.out_adj, g.loops, g.m) == (n, *expected)


@settings(max_examples=250, deadline=None)
@given(reps())
def test_realize_matches_the_former_sweep(rep):
    _same_digraph(realize_digraph(rep), ref.realize_digraph(rep))


def _error(build):
    with pytest.raises(Exception) as exc:
        build()
    return type(exc.value), str(exc.value)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 5), st.data())
def test_first_out_of_range_edge_raises_the_same_error(n, data):
    ids = st.integers(-2, n + 1)
    edges = data.draw(st.lists(st.tuples(ids, ids), min_size=1, max_size=8))
    loops = data.draw(st.lists(ids, max_size=4))
    bad = not all(0 <= x < n for e in edges for x in e) or not all(0 <= v < n for v in loops)
    if bad:
        assert _error(lambda: Digraph(n, edges, loops)) == _error(
            lambda: ref.Digraph(n, edges, loops))
        assert _error(lambda: Digraph(n, edges, loops))[0] is InvalidVertex

