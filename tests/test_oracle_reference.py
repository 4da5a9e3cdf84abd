"""The bit-mask oracles against the counter-and-set oracles kept verbatim
in ``oracle_reference``: the same whole Certificate (vertices, checks,
algorithm, value) or the same witness, not just the same size."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, PointRep, brute_anti_directed_walk,
                        brute_kernel, brute_max_independent,
                        brute_min_absorbing, brute_red_blue)
from intdigraph.generators import gen_interval_bigraph, gen_random_digraph

import oracle_reference as ref
from conftest import all_digraphs


def _same(got, expected):
    assert type(got) is type(expected) and got == expected, (got, expected)


def _check_subset_oracles(g, weights=None):
    for objective in ("exists", "min", "max"):
        _same(brute_kernel(g, objective, weights),
              ref.brute_kernel(g, objective, weights))
    _same(brute_min_absorbing(g), ref.brute_min_absorbing(g))
    _same(brute_max_independent(g, weights), ref.brute_max_independent(g, weights))


def _exhaustive():
    """Every digraph with n <= 3, loops included, and every loopless one
    with n = 4: 4,627 in all."""
    small = itertools.chain.from_iterable(all_digraphs(n) for n in range(4))
    return itertools.chain(small, all_digraphs(4, reflexive=False))


def test_every_small_digraph_gets_the_reference_answers():
    count = 0
    for g in _exhaustive():
        _check_subset_oracles(g)
        _same(brute_anti_directed_walk(g), ref.brute_anti_directed_walk(g))
        count += 1
    assert count == 4627


@st.composite
def weighted_digraphs(draw, max_n=12):
    """A digraph with an edge density and a loop density drawn per digraph,
    plus weights 0..3 (or None, for unit weights)."""
    n = draw(st.integers(0, max_n))
    p, loop_p = draw(st.sampled_from([0.1, 0.25, 0.5])), draw(st.sampled_from([0, 0.5, 1]))
    coins = draw(st.lists(st.floats(0, 1), min_size=n * n, max_size=n * n))
    edges = [(u, v) for u in range(n) for v in range(n)
             if coins[u * n + v] < (loop_p if u == v else p)]
    weights = draw(st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n))
    return Digraph(n, edges), weights


@settings(max_examples=150, deadline=None)
@given(weighted_digraphs())
def test_random_weighted_digraphs_get_the_reference_answers(case):
    _check_subset_oracles(*case)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10), st.integers(0, 10), st.integers(0, 2**16),
       st.sampled_from([None, 2, 5, 12]), st.sampled_from([None, 0, 1, 3]))
def test_red_blue_gets_the_reference_answers(a_size, b_size, seed, grid, max_len):
    # small grids tie endpoints; short intervals leave A vertices isolated
    rep = gen_interval_bigraph(a_size, b_size, seed, grid=grid, max_len=max_len)
    _same(brute_red_blue(rep), ref.brute_red_blue(rep))


@st.composite
def anti_walk_inputs(draw, max_n=14):
    """A random digraph, or a point-point one (no witness) with one pair
    toggled (a late witness, if any)."""
    n = draw(st.integers(0, max_n))
    if draw(st.booleans()):
        p = draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))
        return gen_random_digraph(n, p, loop_p=draw(st.sampled_from([0, 0.5])),
                                  seed=draw(st.integers(0, 2**16)))
    points = st.integers(0, max(n // 3, 1))
    s = draw(st.lists(points, min_size=n, max_size=n))
    t = draw(st.lists(points, min_size=n, max_size=n))
    g = PointRep(tuple(s), tuple(t)).realize_digraph()
    if not n or draw(st.booleans()):
        return g
    u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    arcs = set(g.edges()) | {(w, w) for w in g.loop_vertices()}
    return Digraph(n, arcs ^ {(u, v)})


@settings(max_examples=150, deadline=None)
@given(anti_walk_inputs())
def test_anti_walk_gets_the_reference_witness(g):
    _same(brute_anti_directed_walk(g), ref.brute_anti_directed_walk(g))
