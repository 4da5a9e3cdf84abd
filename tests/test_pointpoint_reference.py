"""The interning point-point recognizer against the splitting-bigraph
recognizer kept in ``pointpoint_reference``."""

from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import Digraph, PointRep, recognize_point_point
from intdigraph.generators import gen_subdivided

import pointpoint_reference as ref
from conftest import digraphs


@st.composite
def dense_digraphs(draw, max_n=8):
    """Any pair, loops included, with an edge density drawn per digraph;
    vertices listed in ``isolated`` get no arc at all."""
    n = draw(st.integers(0, max_n))
    p = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    isolated = draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n // 2))
    coins = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    edges = [(u, v) for u in range(n) for v in range(n)
             if u not in isolated and v not in isolated and coins[u * n + v] < p]
    return Digraph(n, edges)


@st.composite
def point_point_digraphs(draw, max_n=8):
    """The digraph of random source and target points, as it is or with
    one pair (a loop when u = v) toggled."""
    n = draw(st.integers(0, max_n))
    points = st.integers(0, max(n // 2, 1))
    s = draw(st.lists(points, min_size=n, max_size=n))
    t = draw(st.lists(points, min_size=n, max_size=n))
    g = PointRep(tuple(s), tuple(t)).realize_digraph()
    if not n or not draw(st.booleans()):
        return g
    u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    arcs = set(g.edges()) | {(w, w) for w in g.loop_vertices()}
    return Digraph(n, arcs ^ {(u, v)})


@st.composite
def subdivided_hosts(draw):
    sub = gen_subdivided(draw(st.integers(0, 6)), draw(st.sampled_from([0.3, 0.7])),
                         draw(st.integers(1, 3)), draw(st.integers(0, 2**16)))
    return sub.host


@settings(max_examples=400, deadline=None)
@given(st.one_of(digraphs(), dense_digraphs(), point_point_digraphs(), subdivided_hosts()))
def test_recognizer_matches_the_splitting_bigraph_reference(g):
    got = recognize_point_point(g)
    expected = ref.recognize_point_point(g)
    assert type(got) is type(expected) and got == expected
    if isinstance(got, PointRep):
        assert got.realize_digraph() == g
    else:
        assert got.holds_in(g)


def test_realized_subdivided_host_at_scale():
    host = gen_subdivided(160, 0.5, 2, 23).host
    rep = recognize_point_point(host)
    assert isinstance(rep, PointRep)
    assert rep.realize_digraph() == host
