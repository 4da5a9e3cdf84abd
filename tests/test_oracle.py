import itertools
import random

import pytest

from intdigraph import (Digraph, IntervalBigraphRep, Interval, OracleBudget,
                        UndirectedGraph, brute_anti_directed_walk,
                        brute_kernel, brute_max_independent,
                        brute_min_absorbing, brute_ordering_search,
                        brute_red_blue, find_induced_k33,
                        realize_digraph, underlying_undirected, verify_set)
from intdigraph import oracle
from intdigraph.errors import BudgetExceeded
from intdigraph.generators import gen_random_digraph, gen_reflexive_interval

from fixtures import (directed_triangle, no_kernel_duf,
                      oriented_k33_with_loops, symmetric_triangle)


class TestBudgets:
    def test_subset_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_kernel(Digraph(17))
        with pytest.raises(BudgetExceeded):
            brute_min_absorbing(Digraph(17))
        with pytest.raises(BudgetExceeded):
            brute_max_independent(Digraph(17))

    def test_perm_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_ordering_search(Digraph(9))

    def test_k33_budget(self):
        with pytest.raises(BudgetExceeded):
            find_induced_k33(UndirectedGraph(31))

    def test_budget_override(self):
        assert brute_kernel(Digraph(17), budget=OracleBudget(subset_n=17)) is not None

    def test_time_cap(self):
        tight = OracleBudget(time_cap_s=0.0)
        with pytest.raises(BudgetExceeded):
            brute_min_absorbing(Digraph(16), budget=tight)

    def test_anti_walk_budget(self):
        with pytest.raises(BudgetExceeded):
            brute_anti_directed_walk(Digraph(31))
        assert brute_anti_directed_walk(Digraph(31), budget=OracleBudget(k33_n=31)) is None
        # point-point, so without the time cap the scan would run to the end
        full = Digraph(30, itertools.product(range(30), repeat=2))
        with pytest.raises(BudgetExceeded):
            brute_anti_directed_walk(full, budget=OracleBudget(time_cap_s=0.0))


class TestBruteKernel:
    def test_no_kernel_fixture(self):
        g, _ = no_kernel_duf()
        assert brute_kernel(g, "exists") is None
        assert brute_kernel(g, "min") is None

    def test_path_min(self):
        assert brute_kernel(Digraph(3, [(0, 1), (1, 2)]), "min").vertices == (0, 2)

    def test_single_vertex(self):
        assert brute_kernel(Digraph(1), "exists").vertices == (0,)

    def test_min_le_max(self):
        rng = random.Random(83)
        for trial in range(60):
            g = gen_random_digraph(rng.randint(1, 8), rng.random(), seed=trial)
            mn = brute_kernel(g, "min")
            mx = brute_kernel(g, "max")
            assert (mn is None) == (mx is None)
            if mn is not None:
                assert mn.size <= mx.size
                assert verify_set(g, mn.vertices, "kernel").all_checks_pass()
                assert verify_set(g, mx.vertices, "kernel").all_checks_pass()

    def test_matches_raw_subset_enumeration(self):
        rng = random.Random(89)
        for trial in range(120):
            n = rng.randint(1, 7)
            g = gen_random_digraph(n, rng.random(), loop_p=0.3, seed=trial)
            sizes = [len(s) for s in itertools.chain.from_iterable(
                         itertools.combinations(range(n), r) for r in range(n + 1))
                     if verify_set(g, s, "kernel").all_checks_pass()]
            mn = brute_kernel(g, "min")
            mx = brute_kernel(g, "max")
            if not sizes:
                assert mn is None and mx is None
            else:
                assert mn.size == min(sizes) and mx.size == max(sizes)


class TestBruteAbsorbingIndependent:
    def test_in_star(self):
        g = Digraph(4, [(1, 0), (2, 0), (3, 0)])
        assert brute_min_absorbing(g).vertices == (0,)

    def test_two_vertex_arc(self):
        assert brute_min_absorbing(Digraph(2, [(0, 1)])).vertices == (1,)

    def test_edgeless_absorbing_needs_everything(self):
        assert brute_min_absorbing(Digraph(3)).size == 3

    def test_complete_symmetric_mis(self):
        g = Digraph(4, [(u, v) for u in range(4) for v in range(4) if u != v])
        assert brute_max_independent(g).size == 1

    def test_c4_mis(self):
        g = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3)])
        assert brute_max_independent(g).size == 2

    def test_edgeless_mis(self):
        assert brute_max_independent(Digraph(5)).size == 5


class TestBruteRedBlue:
    def test_single_cover(self):
        rep = IntervalBigraphRep([Interval(0, 2)], [Interval(1, 3)])
        assert brute_red_blue(rep).vertices == (0,)

    def test_isolated(self):
        rep = IntervalBigraphRep([Interval(0, 1), Interval(5, 6)], [Interval(0, 2)])
        assert brute_red_blue(rep) is None

    def test_rejects_other_types(self):
        with pytest.raises(TypeError):
            brute_red_blue("nonsense")

    def test_budget_is_checked_before_any_mask_is_built(self, monkeypatch):
        def refuse_to_build(lists):
            raise AssertionError("masks built before the budget check")

        monkeypatch.setattr(oracle, "_masks", refuse_to_build)
        rep = IntervalBigraphRep([Interval(0, 1)], [Interval(0, 1)] * 17)
        with pytest.raises(BudgetExceeded):
            brute_red_blue(rep)
        with pytest.raises(AssertionError, match="masks built"):
            brute_red_blue(IntervalBigraphRep([Interval(0, 1)], [Interval(0, 1)] * 16))


def naive_k33(h: UndirectedGraph):
    """Six-subset enumeration, as slow and direct as possible."""
    for six in itertools.combinations(range(h.n), 6):
        for part_a in itertools.combinations(six, 3):
            part_b = tuple(v for v in six if v not in part_a)
            if part_a[0] > part_b[0]:
                continue
            cross = all(h.has_edge(u, v) for u in part_a for v in part_b)
            intra = any(h.has_edge(u, v) for p in (part_a, part_b)
                        for u, v in itertools.combinations(p, 2))
            if cross and not intra:
                return part_a, part_b
    return None


class TestFindInducedK33:
    def test_k33_itself(self):
        h = UndirectedGraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
        assert find_induced_k33(h) == ((0, 1, 2), (3, 4, 5))

    def test_k33_plus_chord_not_induced(self):
        h = UndirectedGraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)] + [(0, 1)])
        assert find_induced_k33(h) is None

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(91)
        for trial in range(120):
            n = rng.randint(6, 9)
            edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < rng.choice([0.2, 0.5, 0.8])]
            h = UndirectedGraph(n, edges)
            assert (find_induced_k33(h) is None) == (naive_k33(h) is None)

    def test_reflexive_reps_are_k33_free(self):
        rng = random.Random(97)
        for trial in range(60):
            rep = gen_reflexive_interval(rng.randint(6, 18), seed=trial)
            h = underlying_undirected(realize_digraph(rep))
            assert find_induced_k33(h) is None


class TestOrderingSearch:
    def test_directed_triangle_no_duf(self):
        assert brute_ordering_search(directed_triangle(), "duf") is None

    def test_symmetric_triangle_any_order_works(self):
        found = brute_ordering_search(symmetric_triangle(), "duf")
        assert found is not None and found.perm == (0, 1, 2)

    def test_oriented_k33_no_reflexive_interval_ordering(self):
        assert brute_ordering_search(oriented_k33_with_loops(),
                                     "reflexive-interval") is None

    def test_reflexive_path_found(self):
        g = Digraph(3, [(0, 1), (1, 2)], loops=range(3))
        found = brute_ordering_search(g, "reflexive-interval")
        assert found is not None

    def test_bad_kind(self):
        with pytest.raises(ValueError):
            brute_ordering_search(Digraph(2), "mystery")
