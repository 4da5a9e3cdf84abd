import itertools
import random

import pytest

from intdigraph import (Digraph, Interval, IntervalRep, Ordering,
                        UndirectedGraph, brute_kernel, brute_min_absorbing,
                        compute_kernel_table, extract_duf_ordering,
                        kernel_linear,
                        min_independent_dominating_cocomp, normalize,
                        optimal_kernel_adjusted, optimal_kernel_duf,
                        realize_digraph, underlying_undirected,
                        verify_cocomparability_ordering,
                        verify_duf_ordering, verify_set, z_sequence)
from intdigraph.errors import (InvalidOrdering, NotAdjusted, NotCocompOrdered, NotDufOrdered,
                              NotReflexive)
from intdigraph.generators import gen_reflexive_interval

import dp_reference
from dp_reference import adjusted_maxima
from fixtures import (in_star_adjusted, no_kernel_duf, reflexive_path, reverse,
                      symmetric_digraph, two_vertex_example_rep)
from conftest import all_digraphs, min_solution_size, random_adjusted_rep, traced_peak


class TestZSequence:
    def test_monotone_right_ends_and_partition(self):
        """By the definition, on the realized digraph: each pick is the
        survivor whose S interval ends first, the picks' r(S) rise strictly,
        and the picks with their surviving in-neighbours partition V."""
        rng = random.Random(3)
        for trial in range(80):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 25), seed=trial))
            g = realize_digraph(rep)
            picks = z_sequence(rep)
            survivors = set(range(rep.n))
            blocks = []
            for z in picks:
                assert z == min(survivors, key=rep.rs.__getitem__)
                block = {z} | {u for u in survivors if g.has_edge(u, z)}
                survivors -= block
                blocks.append(block)
            assert not survivors
            assert sum(map(len, blocks)) == rep.n == len(set().union(*blocks))
            ends = [rep.rs[z] for z in picks]
            assert all(x < y for x, y in zip(ends, ends[1:]))

    def test_requires_reflexive(self):
        rep = normalize(IntervalRep([(Interval(0, 1), Interval(2, 3))]))
        with pytest.raises(NotReflexive):
            z_sequence(rep)

    def test_stays_small(self):
        """At most 90 bytes per vertex on a 20k-vertex representation (a
        count line of 4n ints took the peak to about 200)."""
        n = 20_000
        rep = normalize(gen_reflexive_interval(n, 7, grid=4 * n, max_len=6))
        assert traced_peak(lambda: z_sequence(rep)) <= 90 * n


class TestKernelLinear:
    def test_single_vertex(self):
        rep = normalize(IntervalRep([(Interval(0, 1), Interval(0, 1))]))
        assert kernel_linear(rep).vertices == (0,)

    def test_two_vertex_unique_kernel(self):
        rep = normalize(two_vertex_example_rep())
        cert = kernel_linear(rep)
        assert cert.vertices == (1,)
        # brute force over all 4 subsets: {1} is the unique kernel
        g = realize_digraph(rep)
        kernels = [s for s in [(), (0,), (1,), (0, 1)]
                   if verify_set(g, s, "kernel").all_checks_pass()]
        assert kernels == [(1,)]

    def test_random_reps_verify(self):
        rng = random.Random(11)
        for trial in range(150):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 12), seed=1000 + trial))
            g = realize_digraph(rep)
            cert = kernel_linear(rep)
            assert verify_set(g, cert.vertices, "kernel").all_checks_pass()

    def test_kernel_perfection_on_induced_subsets(self):
        rng = random.Random(4)
        for trial in range(60):
            rep = gen_reflexive_interval(rng.randint(1, 40), seed=2000 + trial)
            n = rep.n
            for _ in range(5):
                keep = [v for v in range(n) if rng.random() < 0.6]
                if not keep:
                    continue
                sub = normalize(IntervalRep([(rep.source[v], rep.target[v])
                                             for v in keep]))
                cert = kernel_linear(sub)
                assert cert.all_checks_pass()


class TestOptimalKernelDuf:
    def test_no_kernel_fixture(self):
        g, ordering = no_kernel_duf()
        assert optimal_kernel_duf(g, ordering, "min") is None
        assert optimal_kernel_duf(g, ordering, "max") is None

    def test_path_dp_trace(self):
        g, ordering = reflexive_path(3)
        table = compute_kernel_table(ordering, ordering.place(g), "min")
        assert table.values == (2, None, 1)
        assert table.candidates == (0, 1)
        cert = optimal_kernel_duf(g, ordering, "min")
        assert cert.vertices == (0, 2) and cert.value == 2

    def test_single_vertex(self):
        g = Digraph(1)
        cert = optimal_kernel_duf(g, Ordering((0,)), "min")
        assert cert.vertices == (0,)

    def test_rejects_non_duf_ordering(self):
        g = Digraph(3, [(0, 2)])
        with pytest.raises(NotDufOrdered) as exc:
            optimal_kernel_duf(g, Ordering((0, 1, 2)))
        assert exc.value.witness.kind == "duf-out"

    def test_one_placement_per_solve(self, placements):
        """The umbrella check and the table read the same placement."""
        rep = normalize(gen_reflexive_interval(30, seed=5))
        g, ordering = realize_digraph(rep), extract_duf_ordering(rep)
        for objective in ("min", "max"):
            placements.clear()
            assert optimal_kernel_duf(g, ordering, objective) is not None
            assert placements == ["Digraph"]

    def test_tied_continuations_take_the_lowest_position(self):
        # from position 0, positions 1 and 2 continue equally well
        g = Digraph(4, [(1, 2), (2, 1)])
        for objective in ("min", "max"):
            cert = optimal_kernel_duf(g, Ordering(range(4)), objective)
            assert cert.vertices == (0, 1, 3) and cert.value == 3

    def test_tied_starts_take_the_lowest_position(self):
        g = Digraph(4, [(0, 1), (1, 0)])
        cert = optimal_kernel_duf(g, Ordering(range(4)), "min")
        assert cert.vertices == (0, 2, 3) and cert.value == 3

    def test_exhaustive_small_loopless(self):
        for n in range(1, 4):
            for g in all_digraphs(n, reflexive=False):
                bmin = brute_kernel(g, "min")
                bmax = brute_kernel(g, "max")
                for perm in itertools.permutations(range(n)):
                    ordering = Ordering(perm)
                    if verify_duf_ordering(g, ordering) is not None:
                        continue
                    dmin = optimal_kernel_duf(g, ordering, "min")
                    dmax = optimal_kernel_duf(g, ordering, "max")
                    assert (dmin is None) == (bmin is None)
                    if bmin is not None:
                        assert dmin.size == bmin.size
                        assert dmax.size == bmax.size

    def test_weighted_matches_brute(self):
        rng = random.Random(9)
        for trial in range(60):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 9), seed=3000 + trial))
            g = realize_digraph(rep)
            ordering = extract_duf_ordering(rep)
            weights = [rng.randint(0, 6) for _ in range(g.n)]
            for objective in ("min", "max"):
                ours = optimal_kernel_duf(g, ordering, objective, weights)
                ref = brute_kernel(g, objective, weights)
                assert ours is not None and ref is not None
                assert ours.value == ref.value

    def test_loops_do_not_change_answers(self):
        rng = random.Random(21)
        for trial in range(40):
            n = rng.randint(1, 5)
            base = [(u, v) for u in range(n) for v in range(n)
                    if u != v and rng.random() < 0.4]
            g_plain = Digraph(n, base)
            g_loops = Digraph(n, base, loops=[v for v in range(n) if rng.random() < 0.5])
            for perm in itertools.permutations(range(n)):
                ordering = Ordering(perm)
                w1 = verify_duf_ordering(g_plain, ordering)
                w2 = verify_duf_ordering(g_loops, ordering)
                assert (w1 is None) == (w2 is None)
                if w1 is None:
                    a = optimal_kernel_duf(g_plain, ordering, "min")
                    b = optimal_kernel_duf(g_loops, ordering, "min")
                    assert (a is None) == (b is None)
                    if a is not None:
                        assert a.size == b.size


class TestOptimalKernelAdjusted:
    def test_single_vertex(self):
        rep = normalize(IntervalRep([(Interval(0, 2), Interval(0, 1))]))
        assert optimal_kernel_adjusted(rep).vertices == (0,)

    def test_in_star_min_kernel(self):
        g, rep = in_star_adjusted()
        cert = optimal_kernel_adjusted(normalize(rep), "min")
        assert cert.vertices == (0,) and cert.value == 1
        assert brute_kernel(g, "min").size == 1

    def test_not_adjusted(self):
        with pytest.raises(NotAdjusted):
            optimal_kernel_adjusted(normalize(two_vertex_example_rep()))

    def test_agrees_with_general_dp_and_brute(self):
        rng = random.Random(17)
        for trial in range(120):
            rep = normalize(random_adjusted_rep(rng.randint(1, 10), rng))
            g = realize_digraph(rep)
            for r, h in ((rep, g), (rep.swapped(), reverse(g))):
                ordering = Ordering(sorted(range(r.n), key=r.ls.__getitem__))
                assert (adjusted_maxima(r, ordering.perm)
                        == dp_reference.placed_maxima(h, ordering))
            for objective in ("min", "max"):
                adj = optimal_kernel_adjusted(rep, objective)
                gen = optimal_kernel_duf(g, extract_duf_ordering(rep), objective)
                ref = brute_kernel(g, objective)
                assert adj is not None and gen is not None and ref is not None
                assert adj.size == gen.size == ref.size


class TestMinIndependentDominatingCocomp:
    def test_triangle(self):
        k3 = UndirectedGraph(3, [(0, 1), (1, 2), (0, 2)])
        cert = min_independent_dominating_cocomp(k3, Ordering((0, 1, 2)))
        assert cert.size == 1

    def test_p4(self):
        p4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        cert = min_independent_dominating_cocomp(p4, Ordering((0, 1, 2, 3)))
        assert cert.size == 2

    def test_fills_from_the_undirected_placement(self, placements):
        p4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        assert min_independent_dominating_cocomp(p4, Ordering((0, 1, 2, 3))).size == 2
        assert placements == ["UndirectedGraph"]

    def test_builds_no_symmetric_digraph(self, monkeypatch):
        """The certificate is checked on ``h`` itself: the call builds no
        :class:`Digraph` by either constructor."""
        rep = normalize(gen_reflexive_interval(30, 6, max_len=6))
        h, ordering = underlying_undirected(realize_digraph(rep)), extract_duf_ordering(rep)
        want = min_independent_dominating_cocomp(h, ordering)

        def refuse(*args, **kwargs):
            raise AssertionError("digraph built")
        with monkeypatch.context() as mp:
            mp.setattr(Digraph, "__init__", refuse)
            mp.setattr(Digraph, "from_heads", refuse)
            cert = min_independent_dominating_cocomp(h, ordering)
        assert cert == want and cert.checks == {"independent": True, "dominating": True}

    def test_rejects_bad_ordering(self):
        p4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        bad = Ordering((1, 3, 0, 2))
        with pytest.raises(NotCocompOrdered) as info:
            min_independent_dominating_cocomp(p4, bad)
        assert info.value.witness == verify_cocomparability_ordering(p4, bad) == (1, 3, 0)

    def test_rejects_an_ordering_of_another_size(self):
        p4 = UndirectedGraph(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(InvalidOrdering, match="^ordering covers 3 vertices, graph has 4$"):
            min_independent_dominating_cocomp(p4, Ordering((0, 1, 2)))

    def test_random_cocomp_from_interval_reps(self, placements):
        """One placement serves the umbrella check and the table fill."""
        from intdigraph import underlying_undirected
        rng = random.Random(23)
        for trial in range(60):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 10), seed=4000 + trial))
            h = underlying_undirected(realize_digraph(rep))
            ordering = extract_duf_ordering(rep)
            del placements[:]
            cert = min_independent_dominating_cocomp(h, ordering)
            assert placements == ["UndirectedGraph"]
            ref = brute_kernel(symmetric_digraph(h), "min")
            assert ref is not None and cert.size == ref.size


def test_reversal_duality_solution_vs_kernel():
    rng = random.Random(31)
    for trial in range(120):
        n = rng.randint(1, 8)
        g = Digraph(n, [(u, v) for u in range(n) for v in range(n)
                        if u != v and rng.random() < 0.35])
        sol = min_solution_size(g)
        ker = brute_kernel(reverse(g), "min")
        if sol is None:
            assert ker is None
        else:
            assert ker is not None and ker.size == sol


def test_min_absorbing_matches_dominating_of_reverse():
    rng = random.Random(37)
    for trial in range(40):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 10), seed=5000 + trial))
        g = realize_digraph(rep)
        a = brute_min_absorbing(g)
        d = brute_min_absorbing(reverse(g))
        from intdigraph import min_absorbing_reflexive, min_dominating_reflexive
        assert min_absorbing_reflexive(rep).size == a.size
        assert min_dominating_reflexive(rep).size == d.size
