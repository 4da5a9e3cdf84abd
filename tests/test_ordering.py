import itertools
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, Ordering, UndirectedGraph, build_representation,
                        check_reflexive_interval_ordering, extract_duf_ordering,
                        find_forbidden_structure, is_reflexive, normalize,
                        realize_digraph, underlying_undirected,
                        verify_cocomparability_ordering, verify_duf_ordering,
                        verify_representation)
from intdigraph.errors import (DimensionMismatch, ForbiddenStructure, InvalidOrdering,
                               NotReflexive)
import intdigraph.ordering as ordering_mod
from intdigraph.generators import gen_random_digraph, gen_reflexive_interval
from intdigraph.ordering import umbrella_triple

from fixtures import (directed_triangle, no_kernel_duf,
                      oriented_k33_with_loops, reflexive_path, splitting_bigraph,
                      structure_present, symmetric_digraph)
from conftest import all_digraphs, interval_reps, random_adjusted_rep, undirected_graphs


class TestOrdering:
    def test_not_a_permutation(self):
        with pytest.raises(InvalidOrdering):
            Ordering((0, 0, 1))
        with pytest.raises(InvalidOrdering):
            Ordering((0, 2))

    def test_positions(self):
        assert Ordering((2, 0, 1)).positions == (1, 2, 0)


class TestVerifyDuf:
    def test_directed_triangle_has_no_duf_ordering(self):
        g = directed_triangle()
        for perm in itertools.permutations(range(3)):
            w = verify_duf_ordering(g, Ordering(perm))
            assert w is not None
            assert structure_present(g, w)

    def test_no_kernel_fixture_ordering_is_duf(self):
        g, ordering = no_kernel_duf()
        assert verify_duf_ordering(g, ordering) is None

    def test_path_natural_order(self):
        g, ordering = reflexive_path(3)
        assert verify_duf_ordering(g, ordering) is None

    def test_witness_shape(self):
        g = Digraph(3, [(0, 2)])
        w = verify_duf_ordering(g, Ordering((0, 1, 2)))
        assert w.kind == "duf-out"
        assert w.vertices == (0, 1, 1, 2)
        assert structure_present(g, w)
        gr = Digraph(3, [(2, 0)])
        w2 = verify_duf_ordering(gr, Ordering((0, 1, 2)))
        assert w2.kind == "duf-in" and structure_present(gr, w2)


@pytest.fixture
def umbrella_scans(monkeypatch):
    """The position of every umbrella scan the DUF check runs, in order."""
    seen = []
    scan = ordering_mod._umbrella_at

    def counted(near, far, p):
        seen.append(p)
        return scan(near, far, p)
    monkeypatch.setattr(ordering_mod, "_umbrella_at", counted)
    return seen


class TestUmbrellaScans:
    """The DUF check scans only the positions whose upper neighbours, in
    one direction, leave a hole; counted, so no timing is involved."""

    def test_no_scan_on_an_adjusted_instance(self, umbrella_scans):
        rng = random.Random(4)
        for _ in range(40):
            rep = normalize(random_adjusted_rep(rng.randint(0, 30), rng,
                                                rng.choice([0, 2, None])))
            assert verify_duf_ordering(realize_digraph(rep), extract_duf_ordering(rep)) is None
        assert umbrella_scans == []

    def test_one_scan_per_hole(self, umbrella_scans):
        # out-arcs 0 -> 1, 3 leave 2 out, covered by 2 -> 3; in-arcs
        # 1, 3 -> 0 leave 2 out, covered by 3 -> 2; every other list is a run
        g = Digraph(4, [(0, 1), (0, 3), (2, 3), (1, 0), (3, 0), (3, 2)])
        assert verify_duf_ordering(g, Ordering(range(4))) is None
        assert umbrella_scans == [0, 0]  # the out-arcs, then the in-arcs
        umbrella_scans.clear()
        # without 3 -> 2 the in-arc scan at 0 finds the umbrella (0, 2, 3)
        g = Digraph(4, [(0, 1), (0, 3), (2, 3), (1, 0), (3, 0)])
        w = verify_duf_ordering(g, Ordering(range(4)))
        assert (w.kind, w.positions) == ("duf-in", (0, 2, 2, 3))
        assert umbrella_scans == [0, 0]


class TestBuildRepresentation:
    def test_single_looped_vertex(self):
        g = Digraph(1, loops=[0])
        rep = build_representation(g, Ordering((0,)))
        s, t = rep.source[0], rep.target[0]
        assert (s.lo, s.hi, t.lo, t.hi) == (1, 1, 1, 1)

    def test_reflexive_two_path_values(self):
        g, ordering = reflexive_path(2)
        rep = build_representation(g, ordering)
        assert (rep.source[0].lo, rep.source[0].hi) == (1, 2)
        assert (rep.target[0].lo, rep.target[0].hi) == (1, 1)
        assert (rep.source[1].lo, rep.source[1].hi) == (2, 2)
        assert (rep.target[1].lo, rep.target[1].hi) == (2, 2)
        assert verify_representation(rep, g)
        assert is_reflexive(rep)

    def test_missing_loop(self):
        with pytest.raises(NotReflexive):
            build_representation(Digraph(2, [(0, 1)]), Ordering((0, 1)))

    def test_forbidden_ordering_raises_with_witness(self):
        g = Digraph(4, [(0, 3)], loops=range(4))
        with pytest.raises(ForbiddenStructure) as exc:
            build_representation(g, Ordering((0, 1, 2, 3)))
        assert structure_present(g, exc.value.witness)

    def test_random_round_trips(self):
        rng = random.Random(5)
        done = 0
        while done < 60:
            g = gen_random_digraph(rng.randint(1, 7), rng.random(),
                                   loop_p=1.0, seed=rng.randint(0, 10**6))
            perm = list(range(g.n))
            rng.shuffle(perm)
            ordering = Ordering(perm)
            if check_reflexive_interval_ordering(g, ordering) is not None:
                continue
            rep = build_representation(g, ordering)
            assert verify_representation(rep, g)
            assert is_reflexive(rep)
            done += 1


class TestCheckReflexiveIntervalOrdering:
    def test_two_disjoint_edges_pass(self):
        g = Digraph(4, [(0, 1), (2, 3)], loops=range(4))
        assert check_reflexive_interval_ordering(g, Ordering((0, 1, 2, 3))) is None

    def test_long_edge_witness(self):
        g = Digraph(4, [(0, 3)], loops=range(4))
        w = check_reflexive_interval_ordering(g, Ordering((0, 1, 2, 3)))
        assert w is not None and w.kind == "i"
        assert structure_present(g, w)
        # lexicographically least quadruple collapses the middle pair
        assert w.positions == (0, 1, 1, 3)

    def test_oriented_k33_fails_every_ordering(self):
        g = oriented_k33_with_loops()
        for perm in itertools.permutations(range(6)):
            assert check_reflexive_interval_ordering(
                g, Ordering(perm), find_witness=False) is not None

    def test_requires_reflexive(self):
        with pytest.raises(NotReflexive):
            check_reflexive_interval_ordering(Digraph(2), Ordering((0, 1)))

    def test_verdict_without_witness_location(self, monkeypatch):
        g = Digraph(4, [(0, 3)], loops=range(4))
        w = check_reflexive_interval_ordering(g, Ordering((0, 1, 2, 3)),
                                              find_witness=False)
        assert w is not None and w.kind == "unlocated"
        monkeypatch.setattr(ordering_mod, "WITNESS_SEARCH_CAP", 3)
        w2 = check_reflexive_interval_ordering(g, Ordering((0, 1, 2, 3)))
        assert w2 is not None and w2.kind == "unlocated"

    def test_late_swap_above_the_search_cap_is_unlocated(self):
        # the O(n^4) quadruple search once ran for minutes on this case
        rep = gen_reflexive_interval(200, 14, grid=800, max_len=6)
        g = realize_digraph(rep)
        perm = list(extract_duf_ordering(normalize(rep)).perm)
        perm[-2], perm[-1] = perm[-1], perm[-2]
        w = check_reflexive_interval_ordering(g, Ordering(perm))
        assert w is not None and w.kind == "unlocated"
        with pytest.raises(ForbiddenStructure) as exc:
            build_representation(g, Ordering(perm))
        assert exc.value.witness.kind == "unlocated"

    def test_exhaustive_agreement_small_n(self):
        # construct-and-verify decides exactly the absence of the six patterns
        for n in range(1, 4):
            for g in all_digraphs(n, reflexive=True):
                for perm in itertools.permutations(range(n)):
                    ordering = Ordering(perm)
                    direct = find_forbidden_structure(g, ordering)
                    check = check_reflexive_interval_ordering(g, ordering)
                    assert (direct is None) == (check is None)
                    if check is not None:
                        assert structure_present(g, check)


def test_the_checks_realize_no_digraph(monkeypatch):
    # build the inputs and the usual answers first, then forbid realizing
    rep = gen_reflexive_interval(30, 4, grid=60, max_len=6)
    g = realize_digraph(rep)
    good = extract_duf_ordering(rep)
    perm = list(good.perm)
    perm[0], perm[-1] = perm[-1], perm[0]
    bad = Ordering(perm)
    big = gen_reflexive_interval(50, 1)
    big_g = realize_digraph(big)
    big_perm = list(extract_duf_ordering(big).perm)
    big_perm[0], big_perm[-1] = big_perm[-1], big_perm[0]
    expected = [check_reflexive_interval_ordering(g, o) for o in (good, bad)]
    built = build_representation(g, good)
    _, brep = splitting_bigraph(g, rep)

    def forbidden(*args):
        raise AssertionError("realize_digraph called")
    for name, module in list(sys.modules.items()):
        if name.startswith("intdigraph.") and hasattr(module, "realize_digraph"):
            monkeypatch.setattr(module, "realize_digraph", forbidden)
    assert expected[0] is None and expected[1].kind != "unlocated"
    assert [check_reflexive_interval_ordering(g, o) for o in (good, bad)] == expected
    assert check_reflexive_interval_ordering(big_g, Ordering(big_perm)).kind == "unlocated"
    rebuilt = build_representation(g, good)
    assert (rebuilt.ls, rebuilt.rs, rebuilt.lt, rebuilt.rt) == (
        built.ls, built.rs, built.lt, built.rt)
    with pytest.raises(ForbiddenStructure) as exc:
        build_representation(g, bad)
    assert exc.value.witness == expected[1]
    _, again = splitting_bigraph(g, rep)
    assert (again.a_lo, again.a_hi, again.b_lo, again.b_hi) == (
        brep.a_lo, brep.a_hi, brep.b_lo, brep.b_hi)
    with pytest.raises(DimensionMismatch):
        splitting_bigraph(Digraph(g.n, g.edges()), rep)


class TestCocomparability:
    def test_p3_all_orders_pass(self):
        p3 = UndirectedGraph(3, [(0, 1), (1, 2)])
        for perm in itertools.permutations(range(3)):
            assert verify_cocomparability_ordering(p3, Ordering(perm)) is None

    def test_p4_violating_order(self):
        p4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert verify_cocomparability_ordering(p4, Ordering((0, 1, 2, 3))) is None
        w = verify_cocomparability_ordering(p4, Ordering((1, 3, 0, 2)))
        assert w == (1, 3, 0)

    def test_complete_graph_any_order(self):
        k4 = UndirectedGraph(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
        for perm in itertools.permutations(range(4)):
            assert verify_cocomparability_ordering(k4, Ordering(perm)) is None

    def test_k33_has_valid_ordering(self):
        k33 = UndirectedGraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
        assert verify_cocomparability_ordering(k33, Ordering((0, 1, 2, 3, 4, 5))) is None


@settings(max_examples=80, deadline=None)
@given(interval_reps(min_n=1, reflexive=True))
def test_duf_ordering_implies_cocomparability(rep):
    nrep = normalize(rep)
    g = realize_digraph(nrep)
    ordering = extract_duf_ordering(nrep)
    assert verify_duf_ordering(g, ordering) is None
    assert verify_cocomparability_ordering(underlying_undirected(g), ordering) is None


def test_duf_of_symmetric_cocomp_graph():
    # umbrella-free orderings transfer to the symmetric digraph
    h = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
    ordering = Ordering((0, 1, 2, 3))
    assert verify_cocomparability_ordering(h, ordering) is None
    assert verify_duf_ordering(symmetric_digraph(h), ordering) is None


@st.composite
def ordered_graphs(draw):
    h = draw(undirected_graphs(max_n=10))
    return h, Ordering(draw(st.permutations(range(h.n))))


@settings(max_examples=300, deadline=None)
@given(ordered_graphs())
def test_cocomparability_triple_is_the_symmetric_duf_witness(case):
    h, ordering = case
    witness = verify_duf_ordering(symmetric_digraph(h), ordering)
    expected = None if witness is None else umbrella_triple(witness)
    assert verify_cocomparability_ordering(h, ordering) == expected
