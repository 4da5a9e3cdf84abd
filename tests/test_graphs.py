import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, IntervalRep, Ordering, PointRep,
                        UndirectedGraph, brute_kernel, brute_max_independent,
                        check_reflexive_interval_ordering, extract_duf_ordering,
                        k_subdivision, kernel_linear, lift_set, max_independent_duf,
                        normalize, optimal_kernel_duf, realize_digraph,
                        recognize_point_point, underlying_undirected, verify_set)
from intdigraph.errors import InvalidVertex
from intdigraph.fileio import emit_digraph, parse_digraph
from intdigraph.generators import gen_reflexive_interval, gen_subdivided

from fixtures import no_kernel_duf, reverse, symmetric_digraph
from conftest import (VERIFY_MODES, all_subsets, digraphs, interval_reps,
                      undirected_graphs, verify_outcome)


class TestDigraph:
    def test_adjacency_consistency(self):
        g = Digraph(4, [(0, 1), (1, 2), (2, 0), (2, 2), (1, 2)], loops=[3])
        assert g.out_adj == ((1,), (2,), (0,), ())
        assert g.in_adj == ((2,), (0,), (1,), ())
        assert g.loops == (False, False, True, True)
        assert g.m == 3  # duplicates collapsed, loops not counted

    def test_edge_queries(self):
        g = Digraph(3, [(0, 1)], loops=[2])
        assert g.has_edge(0, 1) and not g.has_edge(1, 0)
        assert g.has_edge(2, 2) and not g.has_edge(0, 0)

    def test_out_of_range(self):
        with pytest.raises(InvalidVertex):
            Digraph(2, [(0, 2)])
        with pytest.raises(InvalidVertex):
            Digraph(2, [], loops=[5])

    def test_undirected_rejects_loops(self):
        with pytest.raises(InvalidVertex):
            UndirectedGraph(2, [(1, 1)])


@pytest.mark.parametrize("call,error,message", [
    (lambda: k_subdivision(Digraph(2, [(0, 1)]), 0), ValueError,
     "subdivision needs k >= 1, got 0"),
    (lambda: lift_set(k_subdivision(Digraph(2, [(0, 1)]), 2), [1], mode="solution"),
     ValueError, "mode must be 'kernel' or 'absorbing', got 'solution'"),
    (lambda: optimal_kernel_duf(Digraph(1, loops=[0]), Ordering([0]), "median"),
     ValueError, "objective must be one of ('min', 'max'), got 'median'"),
    (lambda: brute_kernel(Digraph(1), "median"), ValueError,
     "objective must be exists/min/max, got 'median'"),
    (lambda: UndirectedGraph(-1), InvalidVertex, "vertex count -1 is negative"),
    (lambda: UndirectedGraph(2, [(0, 2)]), InvalidVertex,
     "edge (0, 2) out of range for n=2"),
], ids=["subdivide-k0", "lift-mode", "dp-objective", "oracle-objective",
        "undirected-n", "undirected-edge"])
def test_library_argument_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


class TestUnderlyingAndSymmetric:
    def test_symmetric_pair_is_one_edge(self):
        h = underlying_undirected(Digraph(2, [(0, 1), (1, 0)]))
        assert sorted(h.edges()) == [(0, 1)]

    def test_directed_triangle(self):
        h = underlying_undirected(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert sorted(h.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_loops_dropped(self):
        assert underlying_undirected(Digraph(2, [(0, 0), (1, 1)])).m == 0

    def test_c4_kernels_are_independent_dominating_sets(self):
        c4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        d = symmetric_digraph(c4)
        assert d.m == 8
        kernels = {s for s in all_subsets(4)
                   if verify_set(d, s, "kernel").all_checks_pass()}
        ind_dom = set()
        for s in all_subsets(4):
            sset = set(s)
            ind = all(not c4.has_edge(u, v) for u in s for v in s)
            dom = all(v in sset or any(u in sset for u in c4.adj[v]) for v in range(4))
            if ind and dom:
                ind_dom.add(s)
        assert kernels == ind_dom == {(0, 2), (1, 3)}


class TestVerifySet:
    def test_fixture_singletons_fail_absorbing(self):
        g, _ = no_kernel_duf()
        for v in range(4):
            cert = verify_set(g, [v], "kernel")
            assert cert.checks["independent"]
            assert not cert.checks["absorbing"]

    def test_path_ends_kernel(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        # brute force over all 8 subsets: {0, 2} is the only kernel
        kernels = [s for s in all_subsets(3)
                   if verify_set(g, s, "kernel").all_checks_pass()]
        assert kernels == [(0, 2)]

    def test_whole_set_absorbs(self):
        g, _ = no_kernel_duf()
        assert verify_set(g, range(4), "absorbing").all_checks_pass()

    def test_loop_does_not_exempt_outsiders(self):
        g = Digraph(2, [(0, 0)])  # loop on 0, no other arcs
        assert not verify_set(g, [1], "absorbing").all_checks_pass()
        assert verify_set(g, [0, 1], "absorbing").all_checks_pass()

    def test_solution_mode(self):
        g = Digraph(3, [(0, 1), (0, 2)])
        cert = verify_set(g, [0], "solution")
        assert cert.all_checks_pass()
        assert set(cert.checks) == {"independent", "dominating"}

    def test_bad_mode_and_vertex(self):
        g = Digraph(2)
        with pytest.raises(ValueError):
            verify_set(g, [0], "nonsense")
        with pytest.raises(InvalidVertex):
            verify_set(g, [7], "independent")

    @pytest.mark.parametrize("g", [Digraph(2), UndirectedGraph(2),
                                   IntervalRep([((0, 1), (0, 1)), ((2, 3), (2, 3))])],
                             ids=["digraph", "undirected", "intervals"])
    def test_every_instance_type_reports_the_same_keys_and_errors(self, g):
        want = ("unknown mode 'nonsense', expected one of ('independent', "
                "'absorbing', 'dominating', 'kernel', 'solution')")
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            verify_set(g, [0], "nonsense")
        with pytest.raises(InvalidVertex, match="^vertex -1 out of range for n=2$"):
            verify_set(g, [5, -1], "kernel")
        for mode, keys in (("independent", ["independent"]), ("absorbing", ["absorbing"]),
                           ("dominating", ["dominating"]),
                           ("kernel", ["independent", "absorbing"]),
                           ("solution", ["independent", "dominating"])):
            cert = verify_set(g, [1, 0, 1], mode)
            assert list(cert.checks) == keys and cert.vertices == (0, 1)


def test_has_edge_is_false_out_of_range():
    """A bare adjacency lookup would wrap -1 to the last vertex, whose arcs
    and loop are all set here, and raise on n."""
    n = 3
    for g in (Digraph(n, [(2, 0), (2, 1)], loops=[2]),
              UndirectedGraph(n, [(2, 0), (2, 1)])):
        assert g.has_edge(2, 0)
        assert not g.has_edge(-1, 0)
        assert not g.has_edge(n, 0)
        assert not g.has_edge(0, n)
        assert not g.has_edge(-1, -1)


@settings(max_examples=150, deadline=None)
@given(digraphs())
def test_reverse_duality(g):
    rg = reverse(g)
    for s in list(all_subsets(g.n))[:64]:
        absorbing = verify_set(g, s, "absorbing").all_checks_pass()
        dominating = verify_set(rg, s, "dominating").all_checks_pass()
        assert absorbing == dominating


@settings(max_examples=150, deadline=None)
@given(undirected_graphs(), st.lists(st.integers(-1, 9), max_size=6))
def test_undirected_graph_is_checked_as_its_symmetric_digraph(h, drawn):
    """``h.adj`` serves as both out- and in-lists."""
    d = symmetric_digraph(h)
    for s in (drawn, [v % h.n for v in drawn] if h.n else [], *list(all_subsets(h.n))[:24]):
        for mode in VERIFY_MODES:
            assert verify_outcome(h, s, mode) == verify_outcome(d, s, mode)


@settings(max_examples=150, deadline=None)
@given(undirected_graphs())
def test_underlying_of_symmetric_is_identity(h):
    assert underlying_undirected(symmetric_digraph(h)) == h


def test_brute_kernel_matches_verify_set_enumeration():
    g, _ = no_kernel_duf()
    assert brute_kernel(g, "exists") is None
    g2 = Digraph(3, [(0, 1), (1, 2)])
    cert = brute_kernel(g2, "min")
    assert cert.vertices == (0, 2)


WEIGHTED_SOLVERS = {
    "optimal_kernel_duf": lambda g, w: optimal_kernel_duf(g, Ordering(range(g.n)), "min", w),
    "max_independent_duf": lambda g, w: max_independent_duf(g, Ordering(range(g.n)), w),
    "brute_kernel": lambda g, w: brute_kernel(g, "min", w),
    "brute_max_independent": lambda g, w: brute_max_independent(g, w),
}


@pytest.mark.parametrize("solver", WEIGHTED_SOLVERS)
@pytest.mark.parametrize("weights", [[True, False], [1, -1]], ids=["bool", "negative"])
def test_weighted_solvers_reject_bool_and_negative_weights(solver, weights):
    with pytest.raises(ValueError, match="non-negative integers"):
        WEIGHTED_SOLVERS[solver](Digraph(2), weights)


def in_lists_built(g: Digraph) -> bool:
    """Whether ``g`` holds its in-lists, read from the slot itself."""
    try:
        Digraph.in_adj.__get__(g, Digraph)
    except AttributeError:
        return False
    return True


@st.composite
def built_digraphs(draw):
    """One digraph built each way: the constructor (repeated arcs, loops
    as self-arcs and as flags), the head lists, a parsed file (read in
    bulk or, tab-separated with CRLF ends, by the line walk) and the
    realizing sweep."""
    how = draw(st.sampled_from(["init", "heads", "parse-bulk", "parse-walk", "realize"]))
    if how == "realize":
        return realize_digraph(draw(interval_reps(max_n=8)))
    n = draw(st.integers(0, 8))
    vertex = st.integers(0, max(n - 1, 0))
    arcs = draw(st.lists(st.tuples(vertex, vertex), max_size=3 * n) if n else st.just([]))
    loops = draw(st.lists(vertex, max_size=n) if n else st.just([]))
    if how == "init":
        return Digraph(n, arcs, loops)
    if how == "heads":
        heads = [[] for _ in range(n)]
        for u, v in arcs:
            heads[u].append(v)
        flags = [v in loops for v in range(n)]
        return Digraph.from_heads(heads, flags if draw(st.booleans()) else None)
    text = emit_digraph(Digraph(n, arcs, loops))
    if how == "parse-walk":
        text = text.replace(" ", "\t").replace("\n", "\r\n")
    return parse_digraph(text)


@settings(max_examples=100, deadline=None)
@given(built_digraphs())
def test_in_lists_are_built_on_first_read(g):
    """Unbuilt after construction; on first read, each vertex's sorted
    in-neighbours, kept for every later read."""
    assert not in_lists_built(g)
    want = tuple(tuple(u for u in range(g.n) if v in g.out_adj[u]) for v in range(g.n))
    assert g.in_adj == want
    assert in_lists_built(g) and g.in_adj is g.in_adj
    with pytest.raises(AttributeError):
        g.no_such_attribute


@pytest.mark.parametrize("seed", range(4))
def test_out_list_routines_leave_the_in_lists_unbuilt(seed):
    """The reflexive-ordering check, the kernel verification, the kernel
    DP, the chain DP and an accepting point-point recognition read only
    the out-lists."""
    rep = normalize(gen_reflexive_interval(30 + 10 * seed, seed, max_len=5))
    g, ordering = realize_digraph(rep), extract_duf_ordering(rep)
    assert check_reflexive_interval_ordering(g, ordering) is None
    assert verify_set(g, kernel_linear(rep).vertices, "kernel").all_checks_pass()
    assert optimal_kernel_duf(g, ordering, "min") is not None
    assert max_independent_duf(g, ordering).all_checks_pass()
    assert not in_lists_built(g)
    host = gen_subdivided(6 + 2 * seed, 0.5, 2, seed).host
    assert isinstance(recognize_point_point(host), PointRep)
    assert not in_lists_built(host)
