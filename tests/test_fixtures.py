"""The graph helpers the library no longer calls, kept in ``fixtures.py``
for the tests: reversal, induced subgraphs and symmetric digraphs."""

import pytest
from hypothesis import given, settings

from intdigraph import Digraph, UndirectedGraph
from intdigraph.errors import InvalidVertex
from fixtures import induced_subgraph, no_kernel_duf, reverse, symmetric_digraph
from conftest import digraphs


class TestReverse:
    def test_single_edge(self):
        assert sorted(reverse(Digraph(2, [(0, 1)])).edges()) == [(1, 0)]

    def test_empty_fixed_point(self):
        g = Digraph(3)
        assert reverse(g) == g

    def test_involution_on_fixture(self):
        g, _ = no_kernel_duf()
        assert reverse(reverse(g)) == g


class TestInducedSubgraph:
    def test_path_ends(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        sub, relabel = induced_subgraph(g, {0, 2})
        assert sub.n == 2 and sub.m == 0
        assert relabel == {0: 0, 2: 1}

    def test_identity(self):
        g = Digraph(3, [(0, 1), (1, 2)], loops=[0])
        sub, relabel = induced_subgraph(g, range(3))
        assert sub == g and relabel == {0: 0, 1: 1, 2: 2}

    def test_fixture_symmetric_pair(self):
        g, _ = no_kernel_duf()
        sub, relabel = induced_subgraph(g, {0, 1})
        assert sorted(sub.edges()) == [(0, 1), (1, 0)]

    def test_out_of_range(self):
        with pytest.raises(InvalidVertex):
            induced_subgraph(Digraph(2), [3])


class TestSymmetricDigraph:
    def test_symmetric_digraph_single_edge(self):
        d = symmetric_digraph(UndirectedGraph(2, [(0, 1)]))
        assert sorted(d.edges()) == [(0, 1), (1, 0)]

    def test_symmetric_k3(self):
        d = symmetric_digraph(UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)]))
        assert d.m == 6


@settings(max_examples=100, deadline=None)
@given(digraphs())
def test_induced_on_full_vertex_set_is_identity(g):
    sub, relabel = induced_subgraph(g, range(g.n))
    assert sub == g
    assert relabel == {v: v for v in range(g.n)}
