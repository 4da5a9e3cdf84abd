import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, Interval, IntervalRep, extract_duf_ordering,
                        is_reflexive, kernel_linear, normalize, realize_digraph,
                        set_is_absorbing, set_is_dominating, set_is_independent,
                        verify_representation, verify_set,
                        check_reflexive_interval_ordering, verify_duf_ordering)
from intdigraph.errors import DimensionMismatch, InvalidVertex, MalformedInterval, NotReflexive
from intdigraph.generators import gen_reflexive_interval
from intdigraph.intervals import NormalizedRep, meeting_pairs

from fixtures import reverse, two_vertex_example_rep
from conftest import (VERIFY_MODES, all_subsets, brute_realize, interval_reps,
                      traced_peak, verify_outcome)


class TestInterval:
    def test_validation(self):
        with pytest.raises(MalformedInterval):
            Interval(2, 1)
        with pytest.raises(MalformedInterval):
            Interval("x", 1)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(MalformedInterval):
                Interval(0, bad)

    def test_degenerate_allowed(self):
        assert Interval(3, 3).intersects(Interval(0, 3))

    def test_closed_touching(self):
        assert Interval(0, 1).intersects(Interval(1, 2))
        assert not Interval(0, 1).intersects(Interval(Fraction(3, 2), 2))


class TestNormalize:
    def test_shared_endpoint_keeps_loop(self):
        rep = IntervalRep([(Interval(0, 1), Interval(1, 2))])
        nrep = normalize(rep)
        assert nrep.lt[0] < nrep.rs[0]  # still intersecting after ranking
        g = realize_digraph(nrep)
        assert g.loops == (True,)

    def test_distinct_input_is_order_isomorphic(self):
        rep = IntervalRep([(Interval(0, 3), Interval(5, 8)),
                           (Interval(10, 12), Interval(1, 7))])
        nrep = normalize(rep)
        ranks = sorted(nrep.ls + nrep.rs + nrep.lt + nrep.rt)
        assert ranks == list(range(8))
        assert realize_digraph(nrep) == brute_realize(rep)

    def test_degenerate_target_inside_source(self):
        rep = IntervalRep([(Interval(0, 2), Interval(3, 4)),
                           (Interval(5, 6), Interval(1, 1))])
        before = brute_realize(rep)
        after = realize_digraph(normalize(rep))
        assert before == after
        assert before.has_edge(0, 1)

    def test_idempotent(self):
        nrep = normalize(two_vertex_example_rep())
        assert normalize(nrep) is nrep


class TestRealize:
    def test_two_vertex_example(self):
        g = realize_digraph(two_vertex_example_rep())
        assert sorted(g.edges()) == [(0, 1)]
        assert g.loops == (True, True)
        assert g == brute_realize(two_vertex_example_rep())

    def test_single_vertex_loop_only(self):
        g = realize_digraph(IntervalRep([(Interval(0, 1), Interval(0, 1))]))
        assert g.m == 0 and g.loops == (True,)

    def test_disjoint_pairs_edgeless(self):
        rep = IntervalRep([(Interval(0, 1), Interval(10, 11)),
                           (Interval(20, 21), Interval(2, 3))])
        g = realize_digraph(rep)
        assert g.m == 0 and g.loops == (False, False)


class TestVerifyRepresentation:
    def test_match(self):
        rep = two_vertex_example_rep()
        assert verify_representation(rep, realize_digraph(rep))

    def test_edge_removed(self):
        rep = two_vertex_example_rep()
        assert not verify_representation(rep, Digraph(2, [], loops=[0, 1]))

    def test_empty(self):
        assert verify_representation(IntervalRep([]), Digraph(0))

    def test_size_mismatch(self):
        with pytest.raises(DimensionMismatch):
            verify_representation(two_vertex_example_rep(), Digraph(3))


class TestIsReflexive:
    def test_examples(self):
        assert is_reflexive(IntervalRep([(Interval(0, 1), Interval(0, 1))]))
        assert not is_reflexive(IntervalRep([(Interval(0, 1), Interval(2, 3))]))

    def test_adjusted_always_reflexive(self):
        rep = IntervalRep([(Interval(2, 9), Interval(2, 4)),
                           (Interval(5, 6), Interval(5, 11))])
        assert rep.adjusted and is_reflexive(rep)


class TestSetChecksRejectNonVertices:
    """An id outside 0..n-1 raises InvalidVertex, as verify_set does, and
    never wraps round to a vertex from the end."""

    REP = IntervalRep([((0, 9), (0, 9)), ((5, 6), (5, 6))])

    @pytest.mark.parametrize("check", [set_is_absorbing, set_is_dominating,
                                       set_is_independent])
    @pytest.mark.parametrize("s", [[-1], [-2], [2], [0, 7], [7, 2], [-1, 2]])
    def test_out_of_range_id(self, check, s):
        # the least bad id is named, as verify_set's sorted scan named it
        want = f"vertex {min(v for v in s if not 0 <= v < 2)} out of range for n=2"
        for run in (lambda: check(self.REP, s),
                    lambda: verify_set(realize_digraph(self.REP), s, "kernel")):
            with pytest.raises(InvalidVertex, match=f"^{want}$"):
                run()

    def test_in_range_ids_still_answer(self):
        # 0 and 1 are adjacent both ways
        for s in ([0], [1]):
            assert set_is_absorbing(self.REP, s) and set_is_dominating(self.REP, s)
        assert not set_is_independent(self.REP, [0, 1])
        assert not set_is_absorbing(self.REP, []) and set_is_independent(self.REP, [])


class TestExtractDufOrdering:
    def test_two_vertex_example(self):
        ordering = extract_duf_ordering(normalize(two_vertex_example_rep()))
        assert ordering.perm == (0, 1)

    def test_single_vertex(self):
        nrep = normalize(IntervalRep([(Interval(0, 1), Interval(0, 1))]))
        assert extract_duf_ordering(nrep).perm == (0,)

    def test_not_reflexive(self):
        nrep = normalize(IntervalRep([(Interval(0, 1), Interval(2, 3))]))
        with pytest.raises(NotReflexive) as exc:
            extract_duf_ordering(nrep)
        assert exc.value.vertex == 0

    def test_passes_both_checks(self):
        nrep = normalize(two_vertex_example_rep())
        g = realize_digraph(nrep)
        ordering = extract_duf_ordering(nrep)
        assert check_reflexive_interval_ordering(g, ordering) is None
        assert verify_duf_ordering(g, ordering) is None


@settings(max_examples=200, deadline=None)
@given(interval_reps())
def test_realize_matches_brute_pairwise(rep):
    assert realize_digraph(rep) == brute_realize(rep)


@settings(max_examples=200, deadline=None)
@given(interval_reps())
def test_normalization_preserves_realized_digraph(rep):
    assert realize_digraph(normalize(rep)) == realize_digraph(rep)


@settings(max_examples=100, deadline=None)
@given(interval_reps(max_n=6), st.lists(st.integers(-2, 8), max_size=8))
def test_interval_checkers_agree_with_definition(rep, drawn):
    g = realize_digraph(rep)
    subsets = list(all_subsets(rep.n))[:40]
    for s in subsets:
        assert set_is_independent(rep, s) == \
            verify_set(g, s, "independent").all_checks_pass()
        assert set_is_absorbing(rep, s) == \
            verify_set(g, s, "absorbing").all_checks_pass()
        assert set_is_dominating(rep, s) == \
            verify_set(g, s, "dominating").all_checks_pass()
    # verify_set checks a representation on its ranks: the same certificate,
    # or the same InvalidVertex message, as on the realized digraph; the
    # adjusted variant gives T_v the left end of S_v
    adjusted = IntervalRep((s, Interval(s.lo, max(s.lo, t.hi)))
                           for s, t in zip(rep.source, rep.target))
    sets = [drawn, [v % rep.n for v in drawn] if rep.n else [], *subsets[::5]]
    for instance in (rep, normalize(rep), adjusted):
        g = realize_digraph(instance)
        for s in sets:
            for mode in VERIFY_MODES:
                assert verify_outcome(instance, s, mode) == verify_outcome(g, s, mode)


@settings(max_examples=150, deadline=None)
@given(interval_reps(reflexive=True))
def test_reflexive_reps_yield_valid_orderings(rep):
    nrep = normalize(rep)
    assert is_reflexive(nrep)
    g = realize_digraph(nrep)
    ordering = extract_duf_ordering(nrep)
    assert verify_duf_ordering(g, ordering) is None
    assert check_reflexive_interval_ordering(g, ordering) is None


def reference_ranks(rep: IntervalRep):
    """(ls, rs, lt, rt) by the event sort ``normalize`` used to run.

    One (coordinate, right?, vertex, T?) tuple per endpoint, sorted; the
    position of an endpoint's tuple is its rank.
    """
    events = sorted((x, side, v, kind)
                    for v, ivs in enumerate(zip(rep.source, rep.target))
                    for kind, iv in enumerate(ivs)
                    for side, x in enumerate((iv.lo, iv.hi)))
    ranks = {(v, kind, side): r for r, (_, side, v, kind) in enumerate(events)}
    return tuple(tuple(ranks[(v, kind, side)] for v in range(rep.n))
                 for kind, side in ((0, 0), (0, 1), (1, 0), (1, 1)))


def ranks(nrep):
    return nrep.ls, nrep.rs, nrep.lt, nrep.rt


@settings(max_examples=200, deadline=None)
@given(interval_reps())
def test_normalize_and_swapped_match_the_event_sort(rep):
    # the adjusted variant gives T_v the left end of S_v
    adjusted = IntervalRep((s, Interval(s.lo, max(s.lo, t.hi)))
                           for s, t in zip(rep.source, rep.target))
    for raw in (rep, adjusted):
        nrep = normalize(raw)
        assert ranks(nrep) == reference_ranks(raw)
        ls, rs, lt, rt = ranks(nrep)
        reversal = IntervalRep(zip(zip(lt, rt), zip(ls, rs)))
        swapped = nrep.swapped()
        assert ranks(swapped) == reference_ranks(reversal)
        assert realize_digraph(swapped) == reverse(realize_digraph(raw))
        assert swapped.adjusted == raw.adjusted
    assert adjusted.adjusted


# Valid ranks of two vertices: (ls, rs, lt, rt), together 0..7.
GOOD = ((0, 4), (2, 6), (1, 5), (3, 7))


@pytest.mark.parametrize("ls,rs,lt,rt", [
    ((0, 4), (2, 6), (1, 5), (3, 5)),                 # a repeated rank
    ((-1, 0), (1, 2), (3, 4), (5, 6)),                # -1 marks slot 7 if unchecked
    ((0, 4), (2, 6), (1, 5), (3, 8)),                 # a rank of 4n
    ((0, 4), (2, 6), (1, 5), (3, 2**70)),             # past any index
    ((0, 4), (2, 6), (1, 5.0), (3, 7)),               # a float
    ((0, 4), (2, 6), (1, Fraction(5)), (3, 7)),       # a Fraction
    ((0, 4), (2, 6), (1, "5"), (3, 7)),               # a string
    ((0, 6), (2, 4), (1, 5), (3, 7)),                 # ls[1] above rs[1]
    ((0, 4), (2, 6), (3, 5), (1, 7)),                 # lt[0] above rt[0]
    ((0, 4), (2, 6, 6), (1, 5), (3, 7)),              # unequal columns, 6 twice
    ((0, 1), (2,), (3, 4, 5), (6, 7)),                # unequal columns, 0..7 once
])
def test_normalized_rep_rejects_anything_but_the_ranks(ls, rs, lt, rt):
    """The constructor's check: any rank outside 0..4n-1, a repeated or
    non-int rank, unequal columns or a left not below its right is a
    :class:`MalformedInterval`, never an ``IndexError`` or ``TypeError``."""
    with pytest.raises(MalformedInterval):
        NormalizedRep(ls, rs, lt, rt, False)


def test_normalized_rep_accepts_the_ranks():
    assert ranks(NormalizedRep(*GOOD, False)) == GOOD
    assert NormalizedRep((), (), (), (), False).n == 0


def test_swapped_shares_the_tuples_and_round_trips():
    nrep = NormalizedRep(*GOOD, True)
    swapped = nrep.swapped()
    assert ranks(swapped) == (nrep.lt, nrep.rt, nrep.ls, nrep.rs)
    assert swapped.ls is nrep.lt and swapped.rs is nrep.rt
    assert swapped.lt is nrep.ls and swapped.rt is nrep.rs
    twice = swapped.swapped()
    assert ranks(twice) == ranks(nrep) and twice.adjusted is True


def test_normalize_and_swapped_stay_small():
    """``normalize`` of 20k vertices peaks at most 310 bytes per vertex
    above the raw representation (about 335 when the sort's ids and the
    ranks were two sets of int objects), and ``swapped()`` allocates
    almost nothing."""
    n = 20_000
    rep = gen_reflexive_interval(n, 7, grid=4 * n, max_len=6)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        nrep = normalize(rep)
        peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        nrep.swapped()
        swap_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 310 * n, peak / n
    assert swap_peak < 1024, swap_peak


def test_independence_check_stays_small():
    """``set_is_independent`` on the kernel of a 20k-vertex representation
    peaks at most 80 bytes per vertex (two count lines of 4n ints took
    about 350)."""
    n = 20_000
    nrep = normalize(gen_reflexive_interval(n, 7, grid=4 * n, max_len=6))
    kernel = kernel_linear(nrep).vertices
    assert traced_peak(lambda: set_is_independent(nrep, kernel)) <= 80 * n


def test_meeting_pairs_reads_an_iterator_once():
    """An iterator of members counts the pairs its collection does, though
    the count reads the members four times."""
    nrep = normalize(gen_reflexive_interval(50, 3))
    members = [v for v in range(50) if v % 3]
    assert meeting_pairs(nrep, iter(range(50))) == meeting_pairs(nrep, range(50)) > 50
    assert meeting_pairs(nrep, iter(members)) == meeting_pairs(nrep, members)
    assert meeting_pairs(nrep, (v for v in members)) == meeting_pairs(nrep, set(members))
