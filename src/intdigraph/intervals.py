"""Interval representations of digraphs.

A representation assigns each vertex ``u`` a source interval ``S_u`` and a
target interval ``T_u``; the represented digraph has an edge (u, v) exactly
when ``S_u`` and ``T_v`` intersect (closed intervals), and a self-loop on
``u`` exactly when ``S_u`` and ``T_u`` intersect.  Loops are always derived
from the intervals, never stored.

Only the relative order of endpoints matters, so :func:`normalize` replaces
exact rational endpoints by their ranks under a fixed total event order:
coordinates compare first; at equal coordinates every left endpoint precedes
every right endpoint (the unique order-preserving perturbation for closed
intervals); remaining ties break by (vertex id, S-before-T).  The result,
a :class:`NormalizedRep`, is nothing but the four rank sequences ``ls``,
``rs``, ``lt`` and ``rt``, together exactly 0..4n-1.  All downstream
algorithms run on these distinct integer ranks: no floating point anywhere.
Every function here accepts a raw :class:`IntervalRep` too and normalizes
it on entry.  A raw representation is the same four columns holding
coordinates instead of ranks; its :class:`Interval` pairs are views of them.

:func:`stable_ranks` is the one ranking routine.  It also ranks the
endpoints of an interval bigraph (:mod:`intdigraph.domination`); each
caller fixes its tie rule by the order in which it lists the endpoints.
Every later query reads a one-pass array over the rank line instead, or
counts ranks below others on a byte line over it (:func:`below_counts`),
which holds no int object per rank.
"""

from __future__ import annotations

import math
import operator
from itertools import chain, compress, count, repeat
from typing import Iterable

from .errors import DimensionMismatch, MalformedInterval, NotReflexive
from .graphs import Digraph, vertex_set

# Sweep codes, an id in chain(ls, lt, rs, rt) divided by n: the S and T left
# ends, the S right end; the T right end is code 3, the only other.
_SL, _TL, _SR = 0, 1, 2
_lo, _hi = operator.attrgetter("lo"), operator.attrgetter("hi")
_QUERY_FLAG = bytes.maketrans(b"\1\2", b"\0\1")  # below_counts' flags, read by compress


def _coerce(x):
    if isinstance(x, int):
        return x
    from fractions import Fraction  # loaded only for a non-int endpoint
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        if not math.isfinite(x):
            raise MalformedInterval(f"endpoint {x!r} is not finite")
        return Fraction(x)
    raise MalformedInterval(f"endpoint {x!r} is not an int, Fraction or float")


class Interval:
    """A closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi):
        lo = _coerce(lo)
        hi = _coerce(hi)
        if lo > hi:
            raise MalformedInterval(f"interval [{lo}, {hi}] has lo > hi")
        self.lo = lo
        self.hi = hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def __eq__(self, other):
        if not isinstance(other, Interval):
            return NotImplemented
        return self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return f"Interval({self.lo}, {self.hi})"


class IntervalRep:
    """Per-vertex (S, T) intervals as four coordinate columns: vertex ``v``
    has ``S_v = [ls[v], rs[v]]`` and ``T_v = [lt[v], rt[v]]`` (ints or
    Fractions).  ``source`` and ``target`` are :class:`Interval` views,
    built at most once."""

    __slots__ = ("ls", "rs", "lt", "rt", "_source", "_target")

    def __init__(self, pairs: Iterable[tuple[Interval, Interval]]):
        source, target = [], []
        for s, t in pairs:
            source.append(s if isinstance(s, Interval) else Interval(*s))
            target.append(t if isinstance(t, Interval) else Interval(*t))
        self._source, self._target = tuple(source), tuple(target)
        self.ls, self.rs = tuple(map(_lo, source)), tuple(map(_hi, source))
        self.lt, self.rt = tuple(map(_lo, target)), tuple(map(_hi, target))

    @classmethod
    def from_columns(cls, ls, rs, lt, rt) -> "IntervalRep":
        """The representation with these columns, which the caller has
        checked: equally long, ints or Fractions, each left at most its right."""
        rep = cls.__new__(cls)
        rep.ls, rep.rs, rep.lt, rep.rt = tuple(ls), tuple(rs), tuple(lt), tuple(rt)
        rep._source = rep._target = None
        return rep

    @property
    def source(self) -> tuple[Interval, ...]:
        if self._source is None:
            self._source = tuple(map(Interval, self.ls, self.rs))
        return self._source

    @property
    def target(self) -> tuple[Interval, ...]:
        if self._target is None:
            self._target = tuple(map(Interval, self.lt, self.rt))
        return self._target

    @property
    def n(self) -> int:
        return len(self.ls)

    @property
    def adjusted(self) -> bool:
        """True when S and T share a left endpoint at every vertex."""
        return self.ls == self.lt

    def pairs(self):
        return tuple(zip(self.source, self.target))

    def __repr__(self):
        return f"{type(self).__name__}(n={self.n})"


class NormalizedRep:
    """A representation as four flat rank sequences.

    Vertex ``v`` has ``S_v = [ls[v], rs[v]]`` and ``T_v = [lt[v], rt[v]]``,
    where the 4n ranks are exactly the integers 0..4n-1, which every build
    checks in one pass over a ``bytearray(4n)``.  Closed intervals meet
    exactly when each one's left rank is below the other's right rank.
    ``adjusted`` reports whether the raw representation had matching left
    endpoints; the ranks themselves are never equal.
    """

    __slots__ = ("ls", "rs", "lt", "rt", "adjusted")

    def __init__(self, ls, rs, lt, rt, adjusted: bool):
        seen = bytearray(4 * len(ls))
        try:  # 4n ranks fill the 4n slots iff distinct; a negative one wraps
            for r in chain(ls, rs, lt, rt):
                seen[r] = 1
        except (IndexError, TypeError):
            seen = b"\0"
        if (0 in seen or not len(ls) == len(rs) == len(lt) == len(rt)
                or min(chain(ls, lt), default=0) < 0
                or not all(map(operator.lt, chain(ls, lt), chain(rs, rt)))):
            raise MalformedInterval("normalized endpoints are not the ranks 0..4n-1 "
                                    "with each left below its right")
        self.ls, self.rs, self.lt, self.rt = ls, rs, lt, rt
        self.adjusted = adjusted

    @property
    def n(self) -> int:
        return len(self.ls)

    def swapped(self) -> "NormalizedRep":
        """The representation of the reversal: S and T exchanged per vertex.

        Distinct ranks re-normalize to themselves, so relabelling the shared
        tuples, unchecked, is exactly the normalization of the swapped intervals.
        """
        rep = NormalizedRep.__new__(NormalizedRep)
        rep.ls, rep.rs, rep.lt, rep.rt = self.lt, self.rt, self.ls, self.rs
        rep.adjusted = self.adjusted
        return rep

    def __repr__(self):
        return f"NormalizedRep(n={self.n})"


def stable_ranks(coords: list) -> list[int]:
    """``rank[i]``, the place of id i in a stable sort of ``coords``.

    Equal coordinates keep the order of their ids, so a caller fixes its
    tie rule by how it lays the endpoints out.  The ranks are the sorted
    ids' own int objects, so each rank is one object, not two.
    """
    ids = list(range(len(coords)))
    order = sorted(ids, key=coords.__getitem__)
    rank = [0] * len(coords)
    for i, r in zip(order, ids):
        rank[i] = r
    return rank


def normalize(rep) -> NormalizedRep:
    """Rank-normalize endpoints; the realized digraph is unchanged.

    Endpoints are ranked by (coordinate, left before right, vertex, S
    before T).  Their ids list every left before every right, each as S_v,
    T_v by vertex, so :func:`stable_ranks` breaks every tie in that order.
    """
    if isinstance(rep, NormalizedRep):
        return rep
    n = rep.n
    coords = [None] * (4 * n)
    coords[0:2 * n:2] = rep.ls
    coords[1:2 * n:2] = rep.lt
    coords[2 * n::2] = rep.rs
    coords[2 * n + 1::2] = rep.rt
    rank = stable_ranks(coords)
    return NormalizedRep(tuple(rank[0:2 * n:2]), tuple(rank[2 * n::2]),
                         tuple(rank[1:2 * n:2]), tuple(rank[2 * n + 1::2]),
                         rep.adjusted)


def realize_digraph(rep) -> Digraph:
    """The digraph realized by ``rep``: edge (u, v) iff S_u meets T_v.

    Runs a single sweep over the endpoints in rank order, so the cost is
    O(n log n) plus the number of realized edges.
    """
    rep = normalize(rep)
    events = rank_order(chain(rep.ls, rep.lt, rep.rs, rep.rt), 4 * rep.n)
    heads: list[list[int]] = [[] for _ in range(rep.n)]
    active_s: set[int] = set()
    active_t: set[int] = set()
    for code, v in map(divmod, events, repeat(rep.n)):
        if code == _SL:
            heads[v].extend(active_t)
            active_s.add(v)
        elif code == _TL:
            for s in active_s:
                heads[s].append(v)
            active_t.add(v)
        elif code == _SR:
            active_s.discard(v)
        else:
            active_t.discard(v)
    return Digraph.from_heads(heads)


def verify_representation(rep, g: Digraph) -> bool:
    """Whether ``rep`` realizes exactly ``g``, loops included, by counting.

    Every arc of ``g`` must be realized and every loop flag must equal its
    vertex's own S/T meet; then the digraph of ``rep`` holds no other arc
    exactly when its :func:`meeting_pairs` number ``g.m`` plus the loops.
    O(m + n) after normalizing, with no digraph realized.
    """
    if rep.n != g.n:
        raise DimensionMismatch(f"representation has {rep.n} vertices, digraph {g.n}")
    rep = normalize(rep)
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    # ranks are distinct, so S_u meets T_v iff ls[u] < rt[v] and lt[v] < rs[u];
    # read through list copies, as list.__getitem__ is cheaper to call than a tuple's
    rt_at, lt_at = list(rt).__getitem__, list(lt).__getitem__
    for u, heads in enumerate(g.out_adj):
        if heads and (min(map(rt_at, heads)) < ls[u]
                      or max(map(lt_at, heads)) > rs[u]):
            return False
    loops = tuple(a < d and c < b for a, b, c, d in zip(ls, rs, lt, rt))
    return loops == g.loops and meeting_pairs(rep, range(rep.n)) == g.m + sum(loops)


def is_reflexive(rep) -> bool:
    """True when S_u and T_u intersect for every vertex u."""
    rep = normalize(rep)
    return all(map(operator.lt, rep.ls, rep.rt)) and all(map(operator.lt, rep.lt, rep.rs))


def require_reflexive(rep) -> None:
    rep = normalize(rep)
    if not is_reflexive(rep):
        raise NotReflexive(next(v for v, (a, b, c, d) in enumerate(
            zip(rep.ls, rep.rs, rep.lt, rep.rt)) if not (a < d and c < b)))


def extract_duf_ordering(rep):
    """Vertices sorted by the left end of S_v ∩ T_v.

    The resulting ordering is directed umbrella-free for the realized
    digraph and also passes the stronger forbidden-structure check; ranks
    are distinct, so no tie rule is needed and the bucket order needs no sort.
    """
    from .ordering import Ordering  # deferred: the sweeps read no ordering

    rep = normalize(rep)
    require_reflexive(rep)
    return Ordering(rank_order(map(max, rep.ls, rep.lt), 4 * rep.n))


def rank_order(ranks, size: int) -> list[int]:
    """The ids of the distinct ``ranks`` in rising rank order, by buckets."""
    slot = [None] * size
    for i, r in enumerate(ranks):
        slot[r] = i
    return [i for i in slot if i is not None]


def reach_line(size: int, lo, hi) -> list[int]:
    """``top[x]``, the furthest right rank of the intervals ``[lo[i], hi[i]]``
    with ``lo[i] <= x``, else 0: some one meets [a, b] iff ``top[b] > a``."""
    top = [0] * size
    for a, b in zip(lo, hi):
        top[a] = b
    best = 0
    for x in range(size):
        if top[x] > best:
            best = top[x]
        else:
            top[x] = best
    return top


def below_counts(size: int, marked, queried):
    """For each ``queried`` rank in rising order, how many ``marked`` ranks
    lie below it; all of them distinct ranks below ``size``.

    On a byte line flagging the marked ranks 1 and the queried ones 2, with
    the empty ranks dropped, the k-th query flag sits at the number of
    marked ranks below it plus k.  Every pass after the flagging runs in C.
    """
    line = bytearray(size)
    for r in marked:
        line[r] = 1
    for r in queried:
        line[r] = 2
    flags = line.replace(b"\0", b"").translate(_QUERY_FLAG)
    return map(operator.sub, compress(count(), flags), count())


def frontier_walk(lo, hi, bound, size: int):
    """The greedy of both interval sweeps: its steps in order, or None.

    Items, with distinct ranks below ``size``, are taken by rising ``hi``;
    the frontier has passed those with ``lo`` below it.  Any other item is
    a step and moves the frontier to ``bound[i]``, unless that bound is
    not above ``lo[i]``, which stops the walk and returns None.  A step's
    ``lo`` is at least the old frontier, so the frontier only rises.
    """
    front = 0
    steps: list[int] = []
    for i in rank_order(hi, size):
        if lo[i] < front:
            continue
        front = bound[i]
        if front <= lo[i]:
            return None
        steps.append(i)
    return tuple(steps)


# --- definitional set checks computed through the representation ----------
#
# graphs.verify_set runs these on a representation: the properties it checks
# on a digraph, with its id check, read off the rank line instead of adjacency
# lists, so they stay O(n) even when the realized digraph is too large to build.

def set_is_absorbing(rep, s: Iterable[int]) -> bool:
    """Every vertex outside ``s`` has an out-neighbour in ``s``."""
    rep = normalize(rep)
    sset = vertex_set(s, rep.n)
    top = reach_line(4 * rep.n, map(rep.lt.__getitem__, sset), map(rep.rt.__getitem__, sset))
    # S_v meets no member's T interval exactly when top[r(S_v)] <= l(S_v)
    return sset.issuperset(compress(range(rep.n), map(
        operator.le, map(top.__getitem__, rep.rs), rep.ls)))


def set_is_dominating(rep, s: Iterable[int]) -> bool:
    """Every vertex outside ``s`` has an in-neighbour in ``s``."""
    return set_is_absorbing(normalize(rep).swapped(), s)


def meeting_pairs(rep: NormalizedRep, members) -> int:
    """The pairs (u, v) of ``members``, u = v included, where S_u meets T_v.

    S_u meets T_v exactly when l(T_v) < r(S_u) but not r(T_v) < l(S_u),
    and the second implies the first, so the count is the sum over u of
    the members' T intervals starting below r(S_u) less those ending below
    l(S_u): two sums of :func:`below_counts`.  They read ``members`` four
    times, so an iterator is first read into a tuple.
    """
    members = tuple(members) if iter(members) is members else members
    size, at = 4 * rep.n, lambda ranks: map(ranks.__getitem__, members)
    return (sum(below_counts(size, at(rep.lt), at(rep.rs)))
            - sum(below_counts(size, at(rep.rt), at(rep.ls))))


def set_is_independent(rep, s: Iterable[int]) -> bool:
    """No two distinct vertices of ``s`` are adjacent (either direction):
    the :func:`meeting_pairs` of ``s`` are only its reflexive members."""
    rep = normalize(rep)
    ls, rs, lt, rt = rep.ls, rep.rs, rep.lt, rep.rt
    members = vertex_set(s, rep.n)
    return meeting_pairs(rep, members) == sum(
        ls[u] < rt[u] and lt[u] < rs[u] for u in members)
