import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (AntiWalkWitness, Digraph, PointRep,
                        brute_anti_directed_walk, brute_kernel,
                        brute_min_absorbing, find_anti_directed_walk,
                        k_subdivision, lift_set, project_set,
                        recognize_point_point, verify_set, OracleBudget)
from intdigraph.errors import InvalidCertificate, NotIrreflexive, OddSubdivision

from fixtures import anti_walk_example, directed_triangle
from conftest import all_digraphs, digraphs


class TestRecognition:
    def test_directed_triangle_accepted(self):
        rep = recognize_point_point(directed_triangle())
        assert isinstance(rep, PointRep)
        assert rep.realize_digraph() == directed_triangle()
        # sources hit the targets cyclically
        assert rep.s_points[0] == rep.t_points[1]
        assert rep.s_points[1] == rep.t_points[2]
        assert rep.s_points[2] == rep.t_points[0]

    def test_anti_walk_fixture_rejected(self):
        g = anti_walk_example()
        w = recognize_point_point(g)
        assert isinstance(w, AntiWalkWitness)
        assert w.holds_in(g)

    def test_edgeless_loopless_all_points_distinct(self):
        rep = recognize_point_point(Digraph(3))
        assert isinstance(rep, PointRep)
        points = rep.s_points + rep.t_points
        assert len(set(points)) == 6

    def test_complete_symmetric_with_loops_accepted(self):
        n = 4
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n) if u != v],
                    loops=range(n))
        rep = recognize_point_point(g)
        assert isinstance(rep, PointRep)
        assert find_anti_directed_walk(g) is None


@st.composite
def points_and_digraphs(draw, max_n=5):
    """Random points with their own digraph, that digraph with one pair
    (a loop when u = v) toggled, or a random digraph on as many vertices."""
    n = draw(st.integers(0, max_n))
    points = st.lists(st.integers(0, max(n // 2, 1)), min_size=n, max_size=n)
    rep = PointRep(tuple(draw(points)), tuple(draw(points)))
    g = rep.realize_digraph()
    how = draw(st.sampled_from(["own", "toggled", "random"]))
    if how == "random":
        g = draw(digraphs(min_n=n, max_n=n))
    elif how == "toggled" and n:
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        g = Digraph(n, (set(g.edges()) | {(w, w) for w in g.loop_vertices()}) ^ {(u, v)})
    return rep, g


@settings(max_examples=300, deadline=None)
@given(points_and_digraphs())
def test_point_rep_holds_in_exactly_its_realized_digraph(case):
    rep, g = case
    assert rep.holds_in(g) == (rep.realize_digraph() == g)
    assert not rep.holds_in(Digraph(rep.n + 1))


class TestAntiWalkEquivalence:
    def test_exhaustive_n3_with_loops(self):
        for g in all_digraphs(3, reflexive=None):
            fast = find_anti_directed_walk(g)
            slow = brute_anti_directed_walk(g)
            assert (fast is None) == (slow is None)
            if fast is not None:
                assert fast.holds_in(g) and slow.holds_in(g)
            else:
                rep = recognize_point_point(g)
                assert isinstance(rep, PointRep)
                assert rep.realize_digraph() == g

    def test_random_n5(self):
        rng = random.Random(61)
        for _ in range(300):
            n = 5
            edges = [(u, v) for u in range(n) for v in range(n)
                     if rng.random() < 0.3]
            g = Digraph(n, edges)
            fast = find_anti_directed_walk(g)
            slow = brute_anti_directed_walk(g)
            assert (fast is None) == (slow is None)


class TestSubdivision:
    def test_single_arc(self):
        sub = k_subdivision(Digraph(2, [(0, 1)]), 2)
        assert sub.host.n == 4 and sub.host.m == 3
        assert sub.paths == {(0, 1): (2, 3)}
        assert sorted(sub.host.edges()) == [(0, 2), (2, 3), (3, 1)]

    def test_counts_and_recognition(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        sub = k_subdivision(g, 2)
        assert sub.host.n == g.n + 2 * g.m
        assert sub.host.m == 3 * g.m
        assert isinstance(recognize_point_point(sub.host), PointRep)

    def test_rejects_loops(self):
        with pytest.raises(NotIrreflexive):
            k_subdivision(Digraph(1, loops=[0]), 2)

    def test_degrees(self):
        g = Digraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
        sub = k_subdivision(g, 3)
        for path in sub.paths.values():
            for w in path:
                assert len(sub.host.out_adj[w]) == 1
                assert len(sub.host.in_adj[w]) == 1
        for v in range(g.n):
            assert len(sub.host.out_adj[v]) == len(g.out_adj[v])
            assert len(sub.host.in_adj[v]) == len(g.in_adj[v])


class TestLiftProject:
    def test_two_cycle_kernel_lift(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        sub = k_subdivision(g, 2)
        lifted = lift_set(sub, [0], "kernel")
        assert len(lifted) == 1 + 1 * g.m
        assert verify_set(sub.host, lifted, "kernel").all_checks_pass()
        assert project_set(sub, lifted, "kernel") == (0,)

    def test_edgeless_origin_unchanged(self):
        g = Digraph(3)
        sub_src = Digraph(3, [(0, 1)])  # need at least one arc to subdivide
        sub = k_subdivision(sub_src, 2)
        # the no-arc case: k_subdivision of an edgeless digraph
        empty = k_subdivision(g, 2)
        assert lift_set(empty, [0, 1, 2], "kernel") == (0, 1, 2)
        assert sub is not None

    def test_whole_vertex_set_absorbing_lift(self):
        g = Digraph(3, [(0, 1), (1, 2)])
        sub = k_subdivision(g, 2)
        lifted = lift_set(sub, range(3), "absorbing")
        assert verify_set(sub.host, lifted, "absorbing").all_checks_pass()

    def test_absorbing_projection_normalizes_overfull_paths(self):
        g = Digraph(2, [(0, 1)])
        sub = k_subdivision(g, 2)
        u1, u2 = sub.paths[(0, 1)]
        host_set = (u1, u2, 1)  # whole path plus the head: absorbing, overfull
        assert verify_set(sub.host, host_set, "absorbing").all_checks_pass()
        projected = project_set(sub, host_set, "absorbing")
        assert verify_set(g, projected, "absorbing").all_checks_pass()
        assert len(projected) <= len(host_set) - 1 * g.m

    def test_odd_subdivision_rejected(self):
        sub = k_subdivision(Digraph(2, [(0, 1)]), 3)
        with pytest.raises(OddSubdivision):
            lift_set(sub, [1], "kernel")

    def test_invalid_input_set(self):
        g = Digraph(2, [(0, 1), (1, 0)])
        sub = k_subdivision(g, 2)
        with pytest.raises(InvalidCertificate):
            lift_set(sub, [0, 1], "kernel")  # not independent

    def test_kernel_size_bijection_sampled(self):
        rng = random.Random(71)
        budget = OracleBudget(subset_n=28)
        for trial in range(25):
            n = rng.randint(1, 4)
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.4])
            sub = k_subdivision(g, 2)
            origin_min = brute_kernel(g, "min")
            host_min = brute_kernel(sub.host, "min", budget=budget)
            if origin_min is None:
                assert host_min is None
            else:
                assert host_min is not None
                assert host_min.size == origin_min.size + g.m

    def test_absorbing_size_bijection_sampled(self):
        rng = random.Random(73)
        for trial in range(25):
            n = rng.randint(1, 4)
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.35])
            if n + 2 * g.m > 16:
                continue
            sub = k_subdivision(g, 2)
            a = brute_min_absorbing(g)
            ah = brute_min_absorbing(sub.host)
            assert ah.size == a.size + g.m

    def test_every_host_set_projects_on_tiny_gadgets(self):
        # exhausts all host subsets, so every normalization corner is hit
        rng = random.Random(79)
        for trial in range(60):
            n = rng.randint(1, 3)
            g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                            if u != v and rng.random() < 0.6])
            if g.n + 2 * g.m > 9:
                continue
            sub = k_subdivision(g, 2)
            hn = sub.host.n
            for bits in range(1 << hn):
                s = [v for v in range(hn) if bits >> v & 1]
                for mode in ("kernel", "absorbing"):
                    if not verify_set(sub.host, s, mode).all_checks_pass():
                        continue
                    proj = project_set(sub, s, mode)
                    assert verify_set(g, proj, mode).all_checks_pass()
                    if mode == "kernel":
                        assert len(proj) == len(s) - g.m
                    else:
                        assert len(proj) <= len(s) - g.m
