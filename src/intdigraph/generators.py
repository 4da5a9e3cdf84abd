"""Seeded random instance generators.

All generators derive every value from a ``random.Random(seed)`` stream,
so a fixed seed reproduces the instance byte for byte.
"""

from __future__ import annotations

import random
from typing import Optional

from .graphs import Digraph
from .domination import IntervalBigraphRep
from .intervals import Interval, IntervalRep
from .pointpoint import SubdivisionMap, k_subdivision


def _check_grid(grid: Optional[int], max_len: Optional[int]) -> None:
    for name, value in (("grid", grid), ("max_len", max_len)):
        if value is not None and value < 0:
            raise ValueError(f"{name} must be non-negative")


def gen_reflexive_interval(n: int, seed: int, grid: Optional[int] = None,
                           max_len: Optional[int] = None) -> IntervalRep:
    """n random (S, T) pairs on an integer grid, T anchored to a point of S
    so every vertex is reflexive.

    ``grid`` defaults to 4n.  ``max_len`` caps each interval's length,
    which keeps the realized digraph sparse on large grids; lengths never
    exceed ``grid``, so every interval stays on it.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_grid(grid, max_len)
    rng = random.Random(seed)
    grid = 4 * n if grid is None else grid
    pairs = []
    for _ in range(n):
        if max_len is None:
            lo_s = rng.randint(0, grid)
            hi_s = rng.randint(lo_s, grid)
            anchor = rng.randint(lo_s, hi_s)
            lo_t = rng.randint(0, anchor)
            hi_t = rng.randint(anchor, grid)
        else:
            len_s = rng.randint(0, min(max_len, grid))
            lo_s = rng.randint(0, grid - len_s)
            hi_s = lo_s + len_s
            anchor = rng.randint(lo_s, hi_s)
            len_t = rng.randint(0, min(max_len, grid))
            lo_t = rng.randint(max(0, anchor - len_t), min(anchor, grid - len_t))
            hi_t = lo_t + len_t
        pairs.append((Interval(lo_s, hi_s), Interval(lo_t, hi_t)))
    return IntervalRep(pairs)


def gen_interval_bigraph(a_size: int, b_size: int, seed: int,
                         grid: Optional[int] = None,
                         max_len: Optional[int] = None) -> IntervalBigraphRep:
    """Random interval per vertex of each part; isolated vertices possible."""
    if a_size < 0 or b_size < 0:
        raise ValueError("part sizes must be non-negative")
    _check_grid(grid, max_len)
    rng = random.Random(seed)
    grid = 4 * (a_size + b_size) if grid is None else grid

    def draw() -> Interval:
        if max_len is None:
            lo = rng.randint(0, grid)
            return Interval(lo, rng.randint(lo, grid))
        length = rng.randint(0, max_len)
        lo = rng.randint(0, max(0, grid - length))
        return Interval(lo, lo + length)

    return IntervalBigraphRep([draw() for _ in range(a_size)],
                              [draw() for _ in range(b_size)])


def gen_random_digraph(n: int, p: float, loop_p: float = 0.0, seed: int = 0) -> Digraph:
    """Each ordered pair becomes an arc with probability p, each vertex a
    self-loop with probability loop_p."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if not (0.0 <= p <= 1.0 and 0.0 <= loop_p <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(n)
             if u != v and rng.random() < p]
    loops = [v for v in range(n) if rng.random() < loop_p]
    return Digraph(n, edges, loops)


def gen_subdivided(n: int, p: float, k: int, seed: int = 0) -> SubdivisionMap:
    """A random loopless digraph with every arc subdivided k times."""
    origin = gen_random_digraph(n, p, loop_p=0.0, seed=seed)
    return k_subdivision(origin, k)
