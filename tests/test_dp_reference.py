"""The library's suffix-table fills against the quadratic ones in
``dp_reference``: equal values, successors and candidates; the chain
fill against the former insort fill kept there, for its tie rule; and the
adjusted solver against the former O(n^2) one kept there, answer for answer."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, Interval, IntervalRep, Ordering, chain_dag,
                        compute_kernel_table, extract_duf_ordering, normalize,
                        optimal_kernel_adjusted, realize_digraph)
from intdigraph.generators import gen_reflexive_interval

import dp_reference
from conftest import random_adjusted_rep, rationals


def _tables(table):
    return table.values, table.succ, table.candidates


def assert_same_tables(g, ordering, weights):
    placed = ordering.place(g)
    for objective in ("min", "max"):
        assert (_tables(compute_kernel_table(ordering, placed, objective, weights))
                == _tables(dp_reference.compute_kernel_table(g, ordering, objective,
                                                             weights)))
    assert (_tables(chain_dag(ordering, placed, weights))
            == _tables(dp_reference.chain_dag(g, ordering, weights)))


@st.composite
def weight_lists(draw, n):
    """Unit weights (None) or n weights from 0..3, so zeros and ties are common."""
    return draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))


@st.composite
def duf_ordered(draw):
    """A reflexive interval or adjusted-representation digraph, n <= 200,
    with the DUF ordering of its representation and weights."""
    n = draw(st.integers(0, 200))
    seed = draw(st.integers(0, 2**32))
    max_len = draw(st.sampled_from([2, 6, 40, None]))
    if draw(st.booleans()):
        rep = gen_reflexive_interval(n, seed, max_len=max_len)
    else:
        rep = random_adjusted_rep(n, random.Random(seed), max_len)
    rep = normalize(rep)
    return realize_digraph(rep), extract_duf_ordering(rep), draw(weight_lists(n))


@st.composite
def any_ordered(draw):
    """Any digraph on at most 12 vertices under any ordering, with weights."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = Digraph(n, [e for e in pairs if rng.random() < density],
                [v for v in range(n) if rng.random() < 0.5])
    perm = draw(st.permutations(range(n)))
    return g, Ordering(perm), draw(weight_lists(n))


@settings(max_examples=150, deadline=None)
@given(duf_ordered())
def test_duf_ordered_tables_match_the_reference(case):
    assert_same_tables(*case)


@settings(max_examples=300, deadline=None)
@given(any_ordered())
def test_any_ordering_tables_match_the_reference(case):
    assert_same_tables(*case)


@settings(max_examples=100, deadline=None)
@given(duf_ordered() | any_ordered())
def test_chain_fill_keeps_the_insort_tie_rule(case):
    """Ranking in rising order and probing from the end picks the same
    tails as the former (-value, position) ranking probed from the front."""
    g, ordering, weights = case
    table = chain_dag(ordering, ordering.place(g), weights)
    former = dp_reference.chain_dag_insort(g, ordering, weights)
    assert (table.values, table.succ) == (former.values, former.succ)


@st.composite
def adjusted_reps(draw):
    """An adjusted representation, n <= 60, on a grid of about n/2 integers
    or of p/q with q <= 3, so tied endpoints are common."""
    n = draw(st.integers(0, 60))
    point = draw(st.sampled_from([st.integers(0, n // 2 + 1), rationals(0, 6, 3)]))
    pairs = []
    for _ in range(n):
        lo = draw(point)
        pairs.append((Interval(lo, lo + draw(point)), Interval(lo, lo + draw(point))))
    return IntervalRep(pairs)


@settings(max_examples=150, deadline=None)
@given(adjusted_reps())
def test_adjusted_solver_answers_as_the_former_quadratic_one(rep):
    """Also on the reversal, with S and T exchanged in the raw columns (its
    own adjusted representation) and in the ranks (:meth:`swapped`, where
    l(T_v) ranks right before l(S_v))."""
    reversal = IntervalRep.from_columns(rep.lt, rep.rt, rep.ls, rep.rs)
    for r in (rep, reversal, normalize(rep).swapped()):
        for objective in ("min", "max"):
            assert (optimal_kernel_adjusted(r, objective).to_json()
                    == dp_reference.optimal_kernel_adjusted(r, objective).to_json())
