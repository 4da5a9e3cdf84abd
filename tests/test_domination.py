import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, Interval, IntervalBigraphRep, IntervalRep,
                        brute_min_absorbing, brute_red_blue,
                        build_red_blue_state, is_reflexive, kernel_linear,
                        min_absorbing_reflexive, min_dominating_reflexive, normalize,
                        realize_digraph, red_blue_min_dominating, verify_set)
from intdigraph.domination import bigraph_ranks
from intdigraph.errors import DimensionMismatch, MalformedInterval, NotReflexive
from intdigraph.generators import gen_interval_bigraph, gen_reflexive_interval

from fixtures import (gen_catch, gen_nest, reverse, splitting_bigraph, symmetric_triangle,
                      two_vertex_example_rep)
from conftest import interval_reps


def _edges(adj):
    return [(u, v) for u, vs in enumerate(adj) for v in vs]


def _meets(rep, a, b):
    """Whether A interval ``a`` and B interval ``b`` of ``rep`` intersect."""
    return Interval(rep.a_lo[a], rep.a_hi[a]).intersects(Interval(rep.b_lo[b], rep.b_hi[b]))


class TestSplittingBigraph:
    def test_symmetric_triangle_is_six_cycle(self):
        (adj_a, adj_b), _ = splitting_bigraph(symmetric_triangle())
        assert len(_edges(adj_a)) == 6
        assert all(len(adj_a[a]) == 2 for a in range(3))
        assert all(len(adj_b[b]) == 2 for b in range(3))
        # connected + 2-regular + bipartite on six vertices => one C6
        seen = {(0, "a")}
        frontier = [(0, "a")]
        while frontier:
            node, side = frontier.pop()
            nbrs = adj_a[node] if side == "a" else adj_b[node]
            for w in nbrs:
                nxt = (w, "b" if side == "a" else "a")
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        assert len(seen) == 6

    def test_single_loop_vertex(self):
        (adj_a, adj_b), _ = splitting_bigraph(Digraph(1, loops=[0]))
        assert _edges(adj_a) == _edges(adj_b) == [(0, 0)]

    def test_directed_triangle_is_perfect_matching(self):
        (adj_a, adj_b), _ = splitting_bigraph(Digraph(3, [(0, 1), (1, 2), (2, 0)]))
        assert len(_edges(adj_a)) == 3
        assert all(len(adj_a[a]) == 1 for a in range(3))
        assert all(len(adj_b[b]) == 1 for b in range(3))

    def test_with_representation(self):
        rep = normalize(two_vertex_example_rep())
        g = realize_digraph(rep)
        (adj_a, adj_b), brep = splitting_bigraph(g, rep)
        assert brep is not None
        for a in range(2):
            for b in range(2):
                assert _meets(brep, a, b) == (b in adj_a[a]) == (a in adj_b[b])

    def test_mismatched_representation(self):
        rep = normalize(two_vertex_example_rep())
        with pytest.raises(DimensionMismatch):
            splitting_bigraph(Digraph(3), rep)
        with pytest.raises(DimensionMismatch):
            splitting_bigraph(Digraph(2, [(1, 0)], loops=[0, 1]), rep)


def test_bigraph_columns_from_intervals_or_pairs():
    rep = IntervalBigraphRep([Interval(0, 1), (2, Fraction(7, 2))], [(0.5, 2)])
    assert (rep.a_lo, rep.a_hi, rep.b_lo, rep.b_hi) == (
        (0, 2), (1, Fraction(7, 2)), (Fraction(1, 2),), (2,))
    assert (rep.a_size, rep.b_size) == (2, 1)
    with pytest.raises(MalformedInterval):
        IntervalBigraphRep([], [(2, 1)])


FIXTURE_A = [Interval(0, 1), Interval(2, 3), Interval(4, 5)]
FIXTURE_B = [Interval(Fraction(1, 2), Fraction(5, 2)),
             Interval(Fraction(14, 5), Fraction(9, 2)),
             Interval(Fraction(21, 5), 6)]


class TestRedBlueState:
    def test_fixture_trace(self):
        steps = build_red_blue_state(*bigraph_ranks(IntervalBigraphRep(FIXTURE_A, FIXTURE_B)))
        assert steps == ((0, 2), (0, 2))  # (a_first, cover)

    def test_cover_right_ends_strictly_increase(self):
        rng = random.Random(2)
        for trial in range(120):
            rep = gen_interval_bigraph(rng.randint(1, 10), rng.randint(1, 10),
                                       seed=trial)
            steps = build_red_blue_state(*bigraph_ranks(rep))
            if steps is None:
                continue
            a_first, cover = steps
            for a, b in zip(a_first, cover):
                assert _meets(rep, a, b)
            _, b_hi = bigraph_ranks(rep)[2:]
            ends = [b_hi[b] for b in cover]
            assert all(x < y for x, y in zip(ends, ends[1:]))

    def test_covers_dominate_every_a_vertex(self):
        rng = random.Random(6)
        for trial in range(120):
            rep = gen_interval_bigraph(rng.randint(1, 10), rng.randint(1, 10),
                                       seed=1000 + trial)
            steps = build_red_blue_state(*bigraph_ranks(rep))
            if steps is None:
                continue
            for a in range(rep.a_size):
                assert any(_meets(rep, a, b) for b in steps[1])


class TestRedBlueMinDominating:
    def test_single_cover(self):
        rep = IntervalBigraphRep([Interval(0, 1)], [Interval(Fraction(1, 2), 2)])
        cert = red_blue_min_dominating(rep)
        assert cert.vertices == (0,) and cert.value == 1

    def test_three_interval_fixture(self):
        cert = red_blue_min_dominating(IntervalBigraphRep(FIXTURE_A, FIXTURE_B))
        assert cert.value == 2 and cert.vertices == (0, 2)
        ref = brute_red_blue(IntervalBigraphRep(FIXTURE_A, FIXTURE_B))
        assert ref.value == 2

    def test_isolated_a_vertex(self):
        rep = IntervalBigraphRep([Interval(0, 1), Interval(10, 11)],
                                 [Interval(0, 2)])
        assert red_blue_min_dominating(rep) is None
        assert brute_red_blue(rep) is None

    def test_matches_brute_on_random_instances(self):
        rng = random.Random(8)
        for trial in range(250):
            rep = gen_interval_bigraph(rng.randint(1, 8), rng.randint(1, 8),
                                       seed=2000 + trial,
                                       grid=rng.choice([6, 10, 40]))
            ours = red_blue_min_dominating(rep)
            ref = brute_red_blue(rep)
            assert (ours is None) == (ref is None)
            if ours is not None:
                assert ours.value == ref.value

    def test_tied_endpoints(self):
        # several duplicated coordinates force the ranking path
        a = [Interval(0, 2), Interval(2, 4), Interval(4, 6)]
        b = [Interval(2, 2), Interval(4, 4), Interval(0, 0), Interval(6, 6)]
        ours = red_blue_min_dominating(IntervalBigraphRep(a, b))
        ref = brute_red_blue(IntervalBigraphRep(a, b))
        assert ours.value == ref.value == 2


def test_wrong_cover_is_caught_by_each_solver(monkeypatch):
    """A wrong sweep answer is caught by the red-blue coverage check, which
    is the only check the absorbing and dominating solvers run."""
    from intdigraph import domination
    build = domination.build_red_blue_state

    def one_cover(*ranks):
        a_first, cover = build(*ranks)
        return a_first, (cover[0],) * len(cover)

    monkeypatch.setattr(domination, "build_red_blue_state", one_cover)
    disjoint = IntervalRep([(Interval(2 * v, 2 * v + 1),) * 2 for v in range(3)])
    for solve, rep in ((red_blue_min_dominating, IntervalBigraphRep(FIXTURE_A, FIXTURE_B)),
                       (min_absorbing_reflexive, disjoint),
                       (min_dominating_reflexive, disjoint)):
        with pytest.raises(RuntimeError, match="non-dominating"):
            solve(rep)


def test_cover_missing_only_the_rank_zero_a_interval_is_caught(monkeypatch):
    """The A interval whose left end is rank 0 is checked too: on two
    disjoint vertices, repeating the last cover leaves only it uncovered."""
    from intdigraph import domination
    build = domination.build_red_blue_state

    def last_cover(*ranks):
        a_first, cover = build(*ranks)
        return a_first, (cover[-1],) * len(cover)

    monkeypatch.setattr(domination, "build_red_blue_state", last_cover)
    pairs = [(Interval(2 * v, 2 * v + 1),) * 2 for v in range(2)]
    for solve, rep in ((red_blue_min_dominating, IntervalBigraphRep(*zip(*pairs))),
                       (min_absorbing_reflexive, IntervalRep(pairs)),
                       (min_dominating_reflexive, IntervalRep(pairs))):
        with pytest.raises(RuntimeError, match="non-dominating"):
            solve(rep)


def test_absorbing_solver_counts_nothing(monkeypatch):
    """The sweep counts nothing below a rank, and the only re-check is the
    red-blue coverage check, a prefix maximum."""
    from intdigraph import intervals
    calls = []
    below_counts = intervals.below_counts
    monkeypatch.setattr(intervals, "below_counts",
                        lambda *args: calls.append(args) or below_counts(*args))
    rep = normalize(gen_reflexive_interval(40, seed=9))
    assert min_absorbing_reflexive(rep).all_checks_pass()
    assert min_dominating_reflexive(rep).all_checks_pass()
    assert calls == []


class TestAbsorbingDominating:
    def test_single_vertex(self):
        rep = normalize(IntervalRep([(Interval(0, 1), Interval(0, 1))]))
        assert min_absorbing_reflexive(rep).vertices == (0,)
        assert min_dominating_reflexive(rep).vertices == (0,)

    def test_two_vertex_fixture(self):
        rep = normalize(two_vertex_example_rep())
        assert min_absorbing_reflexive(rep).vertices == (1,)
        assert min_dominating_reflexive(rep).vertices == (0,)

    def test_requires_reflexive(self):
        rep = normalize(IntervalRep([(Interval(0, 1), Interval(2, 3))]))
        with pytest.raises(NotReflexive):
            min_absorbing_reflexive(rep)

    def test_matches_brute_minima(self):
        rng = random.Random(14)
        for trial in range(120):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 10),
                                                   seed=3000 + trial))
            g = realize_digraph(rep)
            a = min_absorbing_reflexive(rep)
            assert verify_set(g, a.vertices, "absorbing").all_checks_pass()
            assert a.size == brute_min_absorbing(g).size
            d = min_dominating_reflexive(rep)
            assert verify_set(g, d.vertices, "dominating").all_checks_pass()
            assert d.size == brute_min_absorbing(reverse(g)).size

    def test_absorbing_equals_dominating_of_swapped(self):
        rng = random.Random(15)
        for trial in range(60):
            rep = normalize(gen_reflexive_interval(rng.randint(1, 12),
                                                   seed=4000 + trial))
            assert (min_absorbing_reflexive(rep).size ==
                    min_dominating_reflexive(rep.swapped()).size)

    def test_symmetric_instance_sizes_agree(self):
        # same S and T everywhere realizes a symmetric digraph
        pairs = [(Interval(0, 3), Interval(0, 3)), (Interval(2, 5), Interval(2, 5)),
                 (Interval(7, 9), Interval(7, 9))]
        rep = normalize(IntervalRep(pairs))
        assert (min_absorbing_reflexive(rep).size ==
                min_dominating_reflexive(rep).size)


@settings(max_examples=60, deadline=None)
@given(interval_reps(max_n=10, reflexive=True))
def test_sweeps_match_the_oracles(rep):
    _sweeps_match_the_oracles(rep)


def _sweeps_match_the_oracles(rep):
    assert is_reflexive(rep)
    g = realize_digraph(rep)
    assert min_absorbing_reflexive(rep).value == brute_min_absorbing(g).value
    assert min_dominating_reflexive(rep).value == brute_min_absorbing(reverse(g)).value
    assert verify_set(g, kernel_linear(rep).vertices, "kernel").all_checks_pass()


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32), st.booleans())
def test_nest_shapes_match_the_oracles(n, seed, ties):
    """One interval of each vertex inside the other, on a grid of about n/2
    points when ``ties``."""
    rep = gen_nest(n, seed, ties)
    assert all(a <= c <= d <= b or c <= a <= b <= d
               for a, b, c, d in zip(rep.ls, rep.rs, rep.lt, rep.rt))
    _sweeps_match_the_oracles(rep)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 8), st.integers(0, 2**32), st.booleans())
def test_catch_shapes_match_the_oracles(n, seed, ties):
    """Each vertex's T a single point of its S, on a grid of about n/2
    points when ``ties``."""
    rep = gen_catch(n, seed, ties)
    assert all(a <= c == d <= b for a, b, c, d in zip(rep.ls, rep.rs, rep.lt, rep.rt))
    _sweeps_match_the_oracles(rep)
