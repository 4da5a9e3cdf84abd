"""The position-space ordered routines against the vertex-space ones kept
in ``ordering_reference``, the DUF scan against its former form that
scanned every position, and :meth:`Ordering.place` against a per-vertex
sort and against the former two bucket passes."""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import (Digraph, IntervalRep, Ordering, UndirectedGraph,
                        duf_witness, extract_duf_ordering, max_independent_duf,
                        min_independent_dominating_cocomp, normalize,
                        optimal_kernel_adjusted, optimal_kernel_duf,
                        realize_digraph, verify_cocomparability_ordering,
                        verify_duf_ordering)
from intdigraph.generators import gen_reflexive_interval
from intdigraph.ordering import _construct_scaled

import ordering_reference as ref
from conftest import random_adjusted_rep


def _random_arcs(draw, n, pairs):
    density = draw(st.sampled_from([0.1, 0.3, 0.6, 0.9]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return [e for e in pairs if rng.random() < density], rng


@st.composite
def ordered_digraphs(draw, max_n=9, reflexive=False):
    """A digraph on at most ``max_n`` vertices under any ordering; loops on
    every vertex when ``reflexive``, else on a random half."""
    n = draw(st.integers(0, max_n))
    arcs, rng = _random_arcs(draw, n, [(u, v) for u in range(n) for v in range(n)
                                       if u != v])
    loops = range(n) if reflexive else [v for v in range(n) if rng.random() < 0.5]
    return Digraph(n, arcs, loops), Ordering(draw(st.permutations(range(n))))


@st.composite
def ordered_graphs(draw, max_n=9):
    """An undirected graph on at most ``max_n`` vertices under any ordering."""
    n = draw(st.integers(0, max_n))
    edges, _ = _random_arcs(draw, n, [(u, v) for u in range(n) for v in range(u + 1, n)])
    return UndirectedGraph(n, edges), Ordering(draw(st.permutations(range(n))))


@st.composite
def duf_ordered_digraphs(draw):
    """A reflexive interval digraph on at most 9 vertices under the DUF
    ordering of its representation, with two positions swapped at times."""
    n = draw(st.integers(0, 9))
    rep = normalize(gen_reflexive_interval(n, draw(st.integers(0, 2**32)),
                                           max_len=draw(st.sampled_from([2, 6, None]))))
    perm = list(extract_duf_ordering(rep).perm)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        perm[i], perm[j] = perm[j], perm[i]
    return realize_digraph(rep), Ordering(perm)


def _witness(w):
    return None if w is None else (w.kind, w.vertices, w.positions)


@settings(max_examples=400, deadline=None)
@given(ordered_digraphs() | duf_ordered_digraphs())
def test_duf_witness_matches_the_reference(case):
    """Both the check and the scan of a given placement, which the ordered
    solvers run, return the former vertex-space scan's witness."""
    g, ordering = case
    expected = _witness(ref.verify_duf_ordering(g, ordering))
    assert _witness(verify_duf_ordering(g, ordering)) == expected
    assert _witness(duf_witness(ordering, ordering.place(g))) == expected


@st.composite
def adjusted_ordered_digraphs(draw):
    """An adjusted interval digraph on at most 12 vertices under its
    extracted ordering, with two positions swapped at times."""
    n = draw(st.integers(0, 12))
    rep = normalize(random_adjusted_rep(n, random.Random(draw(st.integers(0, 2**32))),
                                        draw(st.sampled_from([0, 2, None]))))
    perm = list(extract_duf_ordering(rep).perm)
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        perm[i], perm[j] = perm[j], perm[i]
    return realize_digraph(rep), Ordering(perm)


@settings(max_examples=400, deadline=None)
@given(ordered_digraphs() | duf_ordered_digraphs() | adjusted_ordered_digraphs()
       | ordered_graphs())
def test_duf_witness_matches_the_former_scan(case):
    """The scan that skips run-shaped positions returns the witness of the
    former scan, which scanned every position."""
    g, ordering = case
    placed = ordering.place(g)
    assert _witness(duf_witness(ordering, placed)) == _witness(ref.duf_witness(ordering, placed))


def test_duf_witness_matches_the_former_scan_on_seeded_instances():
    """Seeded sparse, dense and adjusted reflexive interval digraphs up to
    n = 40 under their DUF orderings, two positions swapped in half of them:
    both verdicts occur, and every witness is the former scan's."""
    rng = random.Random(26)
    verdicts = set()
    for _ in range(200):
        n = rng.randint(2, 40)
        kind = rng.choice(["sparse", "dense", "adjusted"])
        if kind == "adjusted":
            rep = random_adjusted_rep(n, rng, rng.choice([2, None]))
        else:
            rep = gen_reflexive_interval(n, rng.randrange(2**32),
                                         max_len=3 if kind == "sparse" else None)
        rep = normalize(rep)
        perm = list(extract_duf_ordering(rep).perm)
        if rng.random() < 0.5:
            i, j = rng.randrange(n), rng.randrange(n)
            perm[i], perm[j] = perm[j], perm[i]
        ordering = Ordering(perm)
        placed = ordering.place(realize_digraph(rep))
        witness = _witness(duf_witness(ordering, placed))
        assert witness == _witness(ref.duf_witness(ordering, placed))
        verdicts.add(witness is None)
    assert verdicts == {True, False}


@settings(max_examples=400, deadline=None)
@given(ordered_graphs())
def test_cocomparability_triple_matches_the_reference(case):
    """The vertex-space scan's triple, and the former undirected scan's."""
    h, ordering = case
    triple = verify_cocomparability_ordering(h, ordering)
    assert triple == ref.verify_cocomparability_ordering(h, ordering)
    assert triple == ref.cocomp_triple(ordering, ordering.place(h)[0])


def test_cocomparability_triple_matches_the_former_scan_on_seeded_graphs():
    """Seeded random graphs under random orderings, violating ones included:
    the DUF check's triple is the former undirected scan's."""
    rng = random.Random(5)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(0, 10)
        density = rng.choice([0.2, 0.5, 0.8])
        h = UndirectedGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                                if rng.random() < density])
        ordering = Ordering(rng.sample(range(n), n))
        triple = verify_cocomparability_ordering(h, ordering)
        assert triple == ref.cocomp_triple(ordering, ordering.place(h)[0])
        verdicts.add(triple is None)
    assert verdicts == {True, False}


@settings(max_examples=300, deadline=None)
@given(ordered_digraphs(max_n=12, reflexive=True))
def test_scaled_endpoints_match_the_reference(case):
    g, ordering = case
    assert _construct_scaled(g, ordering) == ref._construct_scaled(g, ordering)


@settings(max_examples=200, deadline=None)
@given(ordered_digraphs(max_n=12), ordered_graphs(max_n=12))
def test_place_is_the_sorted_neighbour_positions(digraph_case, graph_case):
    def sorted_positions(adj, ordering):
        pos = ordering.positions
        return [sorted(pos[u] for u in adj[v]) for v in ordering.perm]

    g, ordering = digraph_case
    assert ordering.place(g) == (sorted_positions(g.out_adj, ordering),
                                 sorted_positions(g.in_adj, ordering))
    h, ordering = graph_case
    adj = sorted_positions(h.adj, ordering)
    assert ordering.place(h) == (adj, adj)


@settings(max_examples=100, deadline=None)
@given(ordered_digraphs(max_n=12), ordered_graphs(max_n=12))
def test_place_matches_the_former_bucket_passes(digraph_case, graph_case):
    """One bucket pass and a transpose give the former two passes' lists."""
    for g, ordering in (digraph_case, graph_case):
        assert ordering.place(g) == ref.BucketOrdering(ordering.perm).place(g)


def test_ordered_solvers_on_the_empty_digraph():
    """The empty set of value 0, with the keys in the CLI's order."""
    def expected(checks, algorithm, objective):
        return json.dumps({"set": [], "size": 0, "checks": dict.fromkeys(checks, True),
                           "certificate_checked": True, "algorithm": algorithm,
                           "optimal": True, "objective": objective, "value": 0})

    empty = Ordering(())
    kernel = ("independent", "absorbing")
    for objective in ("min", "max"):
        assert (json.dumps(optimal_kernel_duf(Digraph(0), empty, objective).to_json())
                == expected(kernel, "kernel-dp", objective))
        assert (json.dumps(optimal_kernel_adjusted(IntervalRep([]), objective).to_json())
                == expected(kernel, "kernel-dp-adjusted", objective))
    assert (json.dumps(max_independent_duf(Digraph(0), empty).to_json())
            == expected(("independent",), "chain-dp", "max"))
    cert = min_independent_dominating_cocomp(UndirectedGraph(0), empty)
    assert (json.dumps(cert.to_json())
            == expected(("independent", "dominating"), "cocomp-min-ind-dom", "min"))
