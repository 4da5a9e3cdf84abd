"""Minimum absorbing and dominating sets via red-blue domination.

The splitting bigraph of a digraph G has a left copy u' and a right copy
u'' of every vertex and an edge u'v'' for every arc (u, v), self-loops
included.  When G is reflexive, subsets of the right side dominating the
whole left side correspond exactly to absorbing sets of G, which reduces
Absorbing-Set to Red-Blue Dominating Set on an interval bigraph.  The
bigraph problem is solved by a single greedy sweep: repeatedly cover the
uncovered A-vertex whose interval ends first with its furthest-reaching
B-neighbour.  Every uncovered A interval ends later, so that neighbour
covers exactly those starting before it ends, a prefix of the left-end
order: the sweep is :func:`~intdigraph.intervals.frontier_walk`, the
forward pass of the kernel sweep too, and its steps are the walk's
``(a_first, cover)`` pair as it is.  Its one re-check, a prefix maximum
over the chosen B intervals, is on a reflexive representation the
absorbing (swapped, dominating) check, so those solvers relabel its
certificate and run no other.

The sweep reads only the order of the endpoints, as four rank sequences
in the form of a :class:`~intdigraph.intervals.NormalizedRep`.  The
absorbing and dominating solvers hand the normalized representation over
as it is; :func:`bigraph_ranks` ranks the columns of a raw
:class:`IntervalBigraphRep` with :func:`~intdigraph.intervals.stable_ranks`,
as ``normalize`` does, and its docstring states the bigraph's tie rule.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional

from .graphs import Certificate
from .intervals import (Interval, IntervalRep, NormalizedRep, frontier_walk,
                        normalize, reach_line, require_reflexive, stable_ranks)


class IntervalBigraphRep:
    """One interval per vertex of each part as four coordinate columns, A
    vertex i ``[a_lo[i], a_hi[i]]`` and B vertex j ``[b_lo[j], b_hi[j]]``,
    each checked as an :class:`Interval`; a-b adjacency by intersection."""

    __slots__ = ("a_lo", "a_hi", "b_lo", "b_hi")

    def __init__(self, a_intervals: Iterable[Interval], b_intervals: Iterable[Interval]):
        a, b = ([iv if isinstance(iv, Interval) else Interval(*iv) for iv in ivs]
                for ivs in (a_intervals, b_intervals))
        self.a_lo, self.a_hi = tuple(iv.lo for iv in a), tuple(iv.hi for iv in a)
        self.b_lo, self.b_hi = tuple(iv.lo for iv in b), tuple(iv.hi for iv in b)

    @property
    def a_size(self) -> int:
        return len(self.a_lo)

    @property
    def b_size(self) -> int:
        return len(self.b_lo)

    def __repr__(self):
        return f"IntervalBigraphRep(|A|={self.a_size}, |B|={self.b_size})"


def bigraph_ranks(rep) -> tuple:
    """``(a_lo, a_hi, b_lo, b_hi)``: the distinct ranks of ``rep``'s endpoints.

    A :class:`NormalizedRep` stands for its splitting bigraph model (A =
    source intervals, B = target intervals) and is already ranked.  An
    :class:`IntervalBigraphRep` is ranked by (coordinate, left before
    right, A before B, index), except that tied right endpoints of one
    part come in falling index order, so the furthest-reaching neighbour
    is the one of least index.  The ids list the A lefts, the B lefts,
    then the A rights and the B rights each in falling index order, so
    :func:`stable_ranks` breaks ties that way.
    """
    if isinstance(rep, NormalizedRep):
        return rep.ls, rep.rs, rep.lt, rep.rt
    rank = stable_ranks([*rep.a_lo, *rep.b_lo, *reversed(rep.a_hi), *reversed(rep.b_hi)])
    t, k = rep.a_size, rep.a_size + rep.b_size
    return rank[:t], rank[k:k + t][::-1], rank[t:k], rank[k + t:][::-1]


def furthest_cover(a_lo, a_hi, b_lo, b_hi):
    """``cover(i)``: the ``(b_hi[j], j)`` of the B interval meeting A interval
    i that reaches furthest right, or None."""
    top = reach_line(2 * (len(a_lo) + len(b_lo)), b_lo, b_hi)
    owner = dict(zip(b_hi, range(len(b_hi))))

    def cover(i):
        r = top[a_hi[i]]
        return (r, owner[r]) if r > a_lo[i] else None
    return cover


def build_red_blue_state(a_lo, a_hi, b_lo, b_hi) -> Optional[tuple]:
    """The sweep over the A intervals ``[a_lo[i], a_hi[i]]`` and the B
    intervals ``[b_lo[j], b_hi[j]]``, their endpoints the ranks 0..2(|A| +
    |B|)-1: ``(a_first, cover)``, where ``a_first[k]`` is the uncovered A
    index ending first at step k and ``cover[k]`` its B-neighbour reaching
    furthest right, so the covers' right ends strictly increase.  None when
    it reaches an A-vertex with no B-neighbour."""
    return frontier_walk(a_lo, a_hi, furthest_cover(a_lo, a_hi, b_lo, b_hi),
                         2 * (len(a_lo) + len(b_lo)))


def red_blue_min_dominating(rep) -> Optional[Certificate]:
    """Minimum subset of B whose neighbourhoods cover all of A.

    ``rep`` is an :class:`IntervalBigraphRep`, or a :class:`NormalizedRep`
    read as its splitting bigraph model (see :func:`bigraph_ranks`).
    Returns None exactly when some A-vertex is isolated.  O(n) after ranking.
    """
    a_lo, a_hi, b_lo, b_hi = bigraph_ranks(rep)
    steps = build_red_blue_state(a_lo, a_hi, b_lo, b_hi)
    if steps is None:
        return None
    vertices = tuple(sorted(steps[1]))
    top = reach_line(2 * (len(a_lo) + len(b_lo)), map(b_lo.__getitem__, vertices),
                     map(b_hi.__getitem__, vertices))
    if not all(map(operator.gt, map(top.__getitem__, a_hi), a_lo)):
        raise RuntimeError("red-blue sweep produced a non-dominating set")
    return Certificate(vertices=vertices, checks={"a-dominating": True},
                       algorithm="red-blue-sweep", optimal=True,
                       objective="min", value=len(vertices))


def min_absorbing_reflexive(rep: IntervalRep) -> Certificate:
    """Minimum absorbing set of the reflexive interval digraph of ``rep``.

    Solves red-blue domination on the splitting bigraph model (A = source
    intervals, B = target intervals) and maps the chosen right copies back
    to vertices.  Reflexivity guarantees no isolated A-vertex.
    """
    nrep = normalize(rep)
    require_reflexive(nrep)
    # The red-blue solver has checked that every source interval meets a
    # chosen target interval.  That makes the set absorbing, and as every
    # vertex is reflexive it is exactly the absorbing condition.
    inner = red_blue_min_dominating(nrep)
    if inner is None:
        raise RuntimeError("reflexive representation produced an isolated copy")
    return inner._replace(checks={"absorbing": True})


def min_dominating_reflexive(rep: IntervalRep) -> Certificate:
    """Minimum dominating set: absorbing on the reversal's representation.

    Swapping each vertex's source and target intervals represents the
    reversed digraph, where dominating and absorbing trade places; the
    coverage check on the swapped ranks is exactly the dominating condition.
    """
    cert = min_absorbing_reflexive(normalize(rep).swapped())
    return cert._replace(checks={"dominating": True}, algorithm="red-blue-sweep-reversed")
