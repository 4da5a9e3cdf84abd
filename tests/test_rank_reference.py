"""The library's bigraph ranking against ``rank_reference._endpoint_ranks``,
its red-blue sweep against the jump table of ``sweep_reference`` and
against the former callback walk kept there, and that walk's rank-line
stab against the ``StabIndex`` kept there: the same endpoint order, the
same red-blue certificate and steps and the same (hi, payload) stabs."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Interval, IntervalBigraphRep, build_red_blue_state, normalize,
                        red_blue_min_dominating)
from intdigraph.domination import bigraph_ranks
from intdigraph.generators import gen_interval_bigraph

import sweep_reference
from conftest import interval_reps
from rank_reference import _endpoint_ranks


def _distinct(a_size: int, b_size: int, seed: int) -> IntervalBigraphRep:
    """Every endpoint a different rational, so no tie rule applies."""
    rng = random.Random(seed)
    vals = [Fraction(x, 7) for x in rng.sample(range(40 * (a_size + b_size) + 2),
                                               2 * (a_size + b_size))]
    ivs = [Interval(min(lo, hi), max(lo, hi)) for lo, hi in zip(vals[::2], vals[1::2])]
    return IntervalBigraphRep(ivs[:a_size], ivs[a_size:])


@st.composite
def bigraphs(draw):
    """A bigraph on a small grid (many ties), the same with ``Fraction``
    endpoints, or one whose endpoints are all distinct rationals."""
    a_size, b_size = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    seed = draw(st.integers(0, 2**32))
    kind = draw(st.sampled_from(["grid", "fraction", "distinct"]))
    if kind == "distinct":
        return _distinct(a_size, b_size, seed)
    rep = gen_interval_bigraph(a_size, b_size, seed, grid=draw(st.integers(0, 8)),
                               max_len=draw(st.sampled_from([0, 1, 3, None])))
    if kind == "fraction":
        scale = draw(st.sampled_from([Fraction(1, 3), Fraction(5, 7)]))
        rep = IntervalBigraphRep(
            [(lo * scale, hi * scale) for lo, hi in zip(rep.a_lo, rep.a_hi)],
            [(lo * scale, hi * scale) for lo, hi in zip(rep.b_lo, rep.b_hi)])
    return rep


def _order(values):
    return sorted(range(len(values)), key=values.__getitem__)


@settings(max_examples=400, deadline=None)
@given(bigraphs())
def test_bigraph_ranks_match_the_reference(rep):
    a, b = _endpoint_ranks(list(map(Interval, rep.a_lo, rep.a_hi)),
                           list(map(Interval, rep.b_lo, rep.b_hi)))
    ref = ([lo for lo, _ in a], [hi for _, hi in a], [lo for lo, _ in b], [hi for _, hi in b])
    ranks = bigraph_ranks(rep)
    assert _order(sum(ranks, [])) == _order(sum(ref, []))
    a_lo, a_hi, b_lo, b_hi = ranks
    index = sweep_reference.StabIndex(zip(b_lo, b_hi, range(rep.b_size)))
    cover = sweep_reference.furthest_cover(a_lo, a_hi, b_lo, b_hi)
    assert (list(map(cover, range(rep.a_size)))
            == [index.stab(lo, hi) for lo, hi in zip(a_lo, a_hi)])
    cert = red_blue_min_dominating(rep)
    state = sweep_reference.build_red_blue_state(*ref)
    assert (cert is None) == (state is None)
    if cert is not None:
        assert cert.vertices == sweep_reference.walk(state)


@settings(max_examples=200, deadline=None)
@given(st.one_of(bigraphs(), interval_reps(max_n=10), interval_reps(max_n=10, reflexive=True)))
def test_red_blue_walk_matches_the_former_walk(rep):
    """The bound-column walk takes the former callback walk's steps on
    bigraphs and on splitting models, or both stop on an isolated A vertex."""
    ranks = bigraph_ranks(rep if isinstance(rep, IntervalBigraphRep) else normalize(rep))
    assert build_red_blue_state(*ranks) == sweep_reference.walk_red_blue_state(*ranks)


@pytest.mark.parametrize("a, b", [
    ([(0, 1)], []),
    ([(0, 1)], [(5, 6)]),
    ([(0, 1), (5, 6)], [(0, 2)]),
    ([(0, 1), (4, Fraction(9, 2))], [(Fraction(1, 2), Fraction(7, 2)), (5, 6)]),
])
def test_an_isolated_a_vertex_stops_both_walks(a, b):
    ranks = bigraph_ranks(IntervalBigraphRep(a, b))
    assert build_red_blue_state(*ranks) is None
    assert sweep_reference.walk_red_blue_state(*ranks) is None
