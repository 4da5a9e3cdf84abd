import bisect
import builtins
import gc
import itertools
import random
import time

import pytest

from intdigraph import (Digraph, Ordering, brute_max_independent, chain_dag,
                        extract_duf_ordering, max_independent_duf, normalize,
                        realize_digraph, underlying_undirected,
                        verify_duf_ordering, verify_set)
from intdigraph import independent
from intdigraph.errors import NotDufOrdered
from intdigraph.generators import gen_reflexive_interval

from fixtures import no_kernel_duf, reflexive_path
from conftest import all_digraphs


def test_semicomplete_fixture_gives_singleton():
    g, ordering = no_kernel_duf()
    cert = max_independent_duf(g, ordering)
    assert cert.size == 1


def test_path_picks_both_ends():
    g, ordering = reflexive_path(3)
    cert = max_independent_duf(g, ordering)
    assert cert.vertices == (0, 2) and cert.value == 2


def test_edgeless_takes_everything():
    g = Digraph(5)
    cert = max_independent_duf(g, Ordering(range(5)))
    assert cert.vertices == (0, 1, 2, 3, 4)


def test_zero_weight_tail_is_not_appended():
    cert = max_independent_duf(Digraph(2), Ordering((0, 1)), [1, 0])
    assert cert.vertices == (0,) and cert.value == 1


def test_rejects_non_duf_ordering():
    with pytest.raises(NotDufOrdered):
        max_independent_duf(Digraph(3, [(0, 2)]), Ordering((0, 1, 2)))


def test_one_placement_per_solve(placements):
    """The umbrella check and the chain fill read the same placement."""
    rep = normalize(gen_reflexive_interval(30, seed=5))
    cert = max_independent_duf(realize_digraph(rep), extract_duf_ordering(rep))
    assert cert.all_checks_pass() and placements == ["Digraph"]


def test_chain_values_decrease_along_successors():
    g, ordering = reflexive_path(4)
    dag = chain_dag(ordering, ordering.place(g))
    for p, nxt in enumerate(dag.succ):
        if nxt is not None:
            assert dag.values[p] > dag.values[nxt]


def test_exhaustive_small_loopless():
    for n in range(1, 4):
        for g in all_digraphs(n, reflexive=False):
            ref = brute_max_independent(g)
            for perm in itertools.permutations(range(n)):
                ordering = Ordering(perm)
                if verify_duf_ordering(g, ordering) is not None:
                    continue
                cert = max_independent_duf(g, ordering)
                assert cert.size == ref.size


def test_randomized_oracle_equivalence():
    rng = random.Random(41)
    for trial in range(120):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 14), seed=trial))
        g = realize_digraph(rep)
        ordering = extract_duf_ordering(rep)
        cert = max_independent_duf(g, ordering)
        assert verify_set(g, cert.vertices, "independent").all_checks_pass()
        assert cert.size == brute_max_independent(g).size


def test_weighted_matches_brute():
    rng = random.Random(43)
    for trial in range(80):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 10), seed=500 + trial))
        g = realize_digraph(rep)
        w = [rng.randint(0, 9) for _ in range(g.n)]
        cert = max_independent_duf(g, extract_duf_ordering(rep), w)
        assert cert.value == brute_max_independent(g, w).value


def test_returned_set_non_adjacent_in_underlying():
    rng = random.Random(47)
    for trial in range(60):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 12), seed=900 + trial))
        g = realize_digraph(rep)
        h = underlying_undirected(g)
        cert = max_independent_duf(g, extract_duf_ordering(rep))
        for u, v in itertools.combinations(cert.vertices, 2):
            assert not h.has_edge(u, v)


def test_non_adjacency_is_transitive_along_duf_order():
    rng = random.Random(53)
    for trial in range(60):
        rep = normalize(gen_reflexive_interval(rng.randint(3, 12), seed=1300 + trial))
        g = realize_digraph(rep)
        h = underlying_undirected(g)
        perm = extract_duf_ordering(rep).perm
        n = len(perm)
        for _ in range(30):
            i, j, k = sorted(rng.sample(range(n), 3))
            a, b, c = perm[i], perm[j], perm[k]
            if not h.has_edge(a, b) and not h.has_edge(b, c):
                assert not h.has_edge(a, c)


DOUBLING_SIZES = (25_000, 50_000, 100_000)


@pytest.fixture(scope="module")
def chain_inputs():
    """Per size, the edgeless digraph and the reflexive path, each under
    the identity ordering (both DUF).  On both the chain values grow
    leftwards, so a ranking that inserts at the front of its list moves
    every entry each time."""
    out = {}
    for n in DOUBLING_SIZES:
        path = Digraph.from_heads([[w for w in (v - 1, v + 1) if 0 <= w < n]
                                   for v in range(n)], [True] * n)
        out[n] = [(Digraph(n), Ordering(range(n))), (path, Ordering(range(n)))]
    return out


def _fill_seconds(g, ordering):
    """Best of two fills, with cyclic GC off as in a CLI run."""
    gc.disable()
    try:
        best = float("inf")
        for _ in range(2):
            t0 = time.perf_counter()
            chain_dag(ordering, ordering.place(g))
            best = min(best, time.perf_counter() - t0)
        return best
    finally:
        gc.enable()


def test_chain_fill_doubles_linearly(chain_inputs):
    """O(m + n log n): doubling n at most triples the fill time."""
    for family in range(2):
        times = {n: _fill_seconds(*chain_inputs[n][family]) for n in DOUBLING_SIZES}
        for n in DOUBLING_SIZES[:-1]:
            assert times[2 * n] <= 3 * times[n] + 0.05, times


def test_chain_fill_moves_at_most_m_entries(chain_inputs, monkeypatch):
    """The work the timed test above bounds, counted: inserting position p
    into the ranked list moves at most deg(p) entries, so a fill moves at
    most m in all.  Under the identity ordering position p is vertex p;
    a key's low digit in base n is n - 1 - p."""
    moves = []

    def counted(ranked, key):
        moves.append((n - 1 - key % n, len(ranked) - bisect.bisect_right(ranked, key)))
        bisect.insort(ranked, key)
    monkeypatch.setattr(independent, "insort", counted)
    for n in DOUBLING_SIZES:
        for g, ordering in chain_inputs[n]:
            moves.clear()
            chain_dag(ordering, ordering.place(g))
            assert len(moves) == n
            for v, moved in moves:
                assert moved <= len(set(g.out_adj[v]) | set(g.in_adj[v])), (n, v, moved)
            assert sum(moved for _, moved in moves) <= g.m


def test_chain_fill_probes_at_most_deg_plus_one_entries(chain_inputs, monkeypatch):
    """The probes the timed test above bounds, counted: position p reads at
    most deg(p) + 1 entries of the ranked list from its end, so a fill reads
    at most n + 2m.  The fill reads the list only through ``reversed``, once
    per position from n - 1 down; under the identity ordering position p is
    vertex p."""
    probes = []

    def counted(ranked):
        probes.append(0)
        for key in builtins.reversed(ranked):
            probes[-1] += 1
            yield key
    monkeypatch.setattr(independent, "reversed", counted, raising=False)
    for n in DOUBLING_SIZES:
        for g, ordering in chain_inputs[n]:
            probes.clear()
            chain_dag(ordering, ordering.place(g))
            assert len(probes) == n and sum(probes) > 0
            for p, read in zip(range(n - 1, -1, -1), probes):
                assert read <= len(set(g.out_adj[p]) | set(g.in_adj[p])) + 1, (n, p, read)
            assert sum(probes) <= n + 2 * g.m
