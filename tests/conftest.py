"""Shared helpers and hypothesis strategies for the test suite."""

from __future__ import annotations

import argparse
import itertools
import tracemalloc
import weakref
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from intdigraph import Digraph, Interval, IntervalRep, Ordering, UndirectedGraph


def brute_realize(rep: IntervalRep) -> Digraph:
    """Pairwise closed-interval intersection; the slow reference for
    realize_digraph."""
    n = rep.n
    edges = []
    for u in range(n):
        for v in range(n):
            if rep.source[u].intersects(rep.target[v]):
                edges.append((u, v))
    return Digraph(n, edges)


def traced_peak(f) -> int:
    """The bytes ``f()`` allocates at its peak, above what was held before,
    as ``tracemalloc`` counts them."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        f()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def all_digraphs(n: int, reflexive: bool | None = None):
    """Every digraph on n vertices.

    reflexive=True forces all loops, False forbids them, None enumerates
    every loop pattern as well.
    """
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    loop_choices: list[tuple[int, ...]]
    if reflexive is True:
        loop_choices = [tuple(range(n))]
    elif reflexive is False:
        loop_choices = [()]
    else:
        loop_choices = [tuple(v for v in range(n) if bits >> v & 1)
                        for bits in range(1 << n)]
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        for loops in loop_choices:
            yield Digraph(n, edges, loops)


def all_subsets(n: int):
    for r in range(n + 1):
        yield from itertools.combinations(range(n), r)


def min_solution_size(g: Digraph):
    """Minimum independent dominating set size of a digraph, or None."""
    from intdigraph import verify_set

    best = None
    for s in all_subsets(g.n):
        cert = verify_set(g, s, "solution")
        if cert.all_checks_pass():
            best = len(s)
            break  # subsets enumerate by increasing size
    return best


def random_adjusted_rep(n, rng, max_len=None):
    """n random vertices whose S and T share their left endpoint, on the
    grid [0, 4n + 1]; ``max_len`` caps the interval lengths."""
    pairs = []
    grid = 4 * n + 1
    for _ in range(n):
        lo = rng.randint(0, grid)
        hi = grid if max_len is None else lo + max_len
        pairs.append((Interval(lo, rng.randint(lo, hi)),
                      Interval(lo, rng.randint(lo, hi))))
    return IntervalRep(pairs)


@st.composite
def rationals(draw, lo=0, hi=24, max_den=4):
    num = draw(st.integers(lo * max_den, hi * max_den))
    den = draw(st.integers(1, max_den))
    return Fraction(num, den)


@st.composite
def interval_reps(draw, min_n=0, max_n=7, reflexive=False):
    """Random representations over a small grid so ties are common."""
    n = draw(st.integers(min_n, max_n))
    pairs = []
    for _ in range(n):
        a = draw(rationals())
        b = draw(rationals())
        s = Interval(min(a, b), max(a, b))
        if reflexive:
            span = s.hi - s.lo
            anchor = s.lo + span * draw(st.integers(0, 4)) / 4
            c = draw(rationals())
            d = draw(rationals())
            t = Interval(min(c, anchor), max(d, anchor))
        else:
            c = draw(rationals())
            d = draw(rationals())
            t = Interval(min(c, d), max(c, d))
        pairs.append((s, t))
    return IntervalRep(pairs)


@st.composite
def digraphs(draw, min_n=0, max_n=8, loops=True):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs
                 else st.just([]))
    loop_vs = draw(st.lists(st.integers(0, n - 1), max_size=n) if loops and n
                   else st.just([]))
    return Digraph(n, edges, loop_vs)


@st.composite
def undirected_graphs(draw, min_n=0, max_n=8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=2 * n) if pairs
                 else st.just([]))
    return UndirectedGraph(n, edges)


@pytest.fixture
def placements(monkeypatch):
    """The type name of every graph that ``Ordering.place`` places, in order."""
    seen = []
    place = Ordering.place

    def counted(self, g):
        seen.append(type(g).__name__)
        return place(self, g)
    monkeypatch.setattr(Ordering, "place", counted)
    return seen


@pytest.fixture
def made_parsers(monkeypatch):
    """A weak reference to every ``ArgumentParser`` built during the test, in
    order: parsers left by earlier tests are neither counted nor held."""
    made = []
    init = argparse.ArgumentParser.__init__

    def recorded(self, *args, **kwargs):
        made.append(weakref.ref(self))
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", recorded)
    return made


# verify_set's modes, as the CLI's ``verify --kind`` lists them
VERIFY_MODES = ("independent", "absorbing", "dominating", "kernel", "solution")


def verify_outcome(g, s, mode: str):
    """``verify_set(g, s, mode)`` with its checks in report order, or the
    message of the :class:`InvalidVertex` it raises."""
    from intdigraph import verify_set
    from intdigraph.errors import InvalidVertex

    try:
        cert = verify_set(g, s, mode)
    except InvalidVertex as exc:
        return str(exc)
    return cert, tuple(cert.checks)
