"""Acceptance suite: one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test also prints an ``ACCEPTANCE n PASS`` line.
"""

import itertools
import random
import time
from collections import Counter

import numpy as np

from intdigraph import (Digraph, IntervalRep, OracleBudget, Ordering,
                        brute_anti_directed_walk, brute_kernel,
                        brute_max_independent, brute_min_absorbing,
                        brute_ordering_search, brute_red_blue,
                        check_reflexive_interval_ordering,
                        extract_duf_ordering, find_induced_k33,
                        k_subdivision, kernel_linear, lift_set,
                        max_independent_duf, min_absorbing_reflexive,
                        min_dominating_reflexive, normalize,
                        optimal_kernel_duf, project_set, realize_digraph,
                        recognize_point_point, red_blue_min_dominating,
                        underlying_undirected,
                        verify_duf_ordering, verify_representation, verify_set,
                        PointRep, build_representation)
from intdigraph import domination, intervals
from intdigraph import ordering as ordering_module
from intdigraph.generators import gen_interval_bigraph, gen_reflexive_interval
from intdigraph.kernels import compute_kernel_table

from fixtures import (directed_triangle, no_kernel_duf,
                      oriented_k33_with_loops, reverse, splitting_bigraph,
                      symmetric_triangle)


def _report(num: int, desc: str) -> None:
    print(f"ACCEPTANCE {num} PASS - {desc}")


def _loopless_digraphs(n: int):
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield Digraph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


# ---------------------------------------------------------------------------

def test_criterion_1_oracle_equivalence():
    rng = random.Random(2024)

    # 500 random reflexive representations, n <= 12
    for trial in range(500):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 12), seed=trial))
        g = realize_digraph(rep)
        ordering = extract_duf_ordering(rep)

        k = kernel_linear(rep)
        assert verify_set(g, k.vertices, "kernel").all_checks_pass()

        bmin = brute_kernel(g, "min")
        bmax = brute_kernel(g, "max")
        assert optimal_kernel_duf(g, ordering, "min").size == bmin.size
        assert optimal_kernel_duf(g, ordering, "max").size == bmax.size

        assert min_absorbing_reflexive(rep).size == brute_min_absorbing(g).size
        assert (min_dominating_reflexive(rep).size ==
                brute_min_absorbing(reverse(g)).size)

        assert max_independent_duf(g, ordering).size == brute_max_independent(g).size

    # every digraph with n <= 4, paired with every passing ordering; loops
    # are enumerated separately below because none of the checked
    # quantities reads self-loops
    for n in range(1, 5):
        for g in _loopless_digraphs(n):
            bmin = brute_kernel(g, "min")
            bmax = brute_kernel(g, "max")
            bmis = brute_max_independent(g)
            for perm in itertools.permutations(range(n)):
                ordering = Ordering(perm)
                if verify_duf_ordering(g, ordering) is not None:
                    continue
                dmin = optimal_kernel_duf(g, ordering, "min")
                assert (dmin is None) == (bmin is None)
                if bmin is not None:
                    assert dmin.size == bmin.size
                    assert optimal_kernel_duf(g, ordering, "max").size == bmax.size
                assert max_independent_duf(g, ordering).size == bmis.size

    # sampled loop patterns leave every answer unchanged
    for trial in range(200):
        n = rng.randint(1, 4)
        arcs = [(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.5]
        loops = [v for v in range(n) if rng.random() < 0.5]
        plain, looped = Digraph(n, arcs), Digraph(n, arcs, loops)
        perm = list(range(n))
        rng.shuffle(perm)
        ordering = Ordering(perm)
        assert ((verify_duf_ordering(plain, ordering) is None) ==
                (verify_duf_ordering(looped, ordering) is None))
        b1, b2 = brute_kernel(plain, "min"), brute_kernel(looped, "min")
        assert (b1 is None) == (b2 is None)
        if b1 is not None:
            assert b1.size == b2.size

    # red-blue against brute force on bigraphs with |A|, |B| <= 8
    for trial in range(500):
        rep = gen_interval_bigraph(rng.randint(1, 8), rng.randint(1, 8),
                                   seed=trial, grid=rng.choice([6, 12, 48]))
        ours = red_blue_min_dominating(rep)
        ref = brute_red_blue(rep)
        assert (ours is None) == (ref is None)
        if ours is not None:
            assert ours.value == ref.value

    _report(1, "optimizers match brute-force extremes on 500 reps, all n<=4 "
               "digraphs, and 500 bigraphs")


# ---------------------------------------------------------------------------

def _exhaustive_converse_vectorized(n: int) -> None:
    """Over all reflexive digraphs on n vertices with the identity ordering:
    the six patterns are absent iff the interval construction realizes the
    digraph.  Vectorized over all 2^(n(n-1)) graphs at once."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    total = 1 << len(pairs)
    G = np.arange(total, dtype=np.int64)
    E = {}
    for k, (i, j) in enumerate(pairs):
        E[(i, j)] = ((G >> k) & 1).astype(bool)

    def edge(i, j):
        return True if i == j else E[(i, j)]

    violated = np.zeros(total, dtype=bool)
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b, n):
                for d in range(c + 1, n):
                    violated |= E[(a, d)] & ~E[(a, b)] & ~E[(c, d)]
                    violated |= (E[(a, d)] & edge(b, c)
                                 & ~E[(a, c)] & ~E[(b, d)])
                    violated |= E[(d, a)] & ~E[(b, a)] & ~E[(d, c)]
                    violated |= (E[(d, a)] & edge(c, b)
                                 & ~E[(c, a)] & ~E[(d, b)])
                    if b < c:
                        violated |= (E[(a, c)] & E[(b, d)]
                                     & ~E[(a, d)] & ~E[(b, c)])
                        violated |= (E[(c, a)] & E[(d, b)]
                                     & ~E[(d, a)] & ~E[(c, b)])

    scale = n + 1
    RS, RT, LS, LT = [None] * n, [None] * n, [None] * n, [None] * n
    for i in range(n):
        y = np.full(total, n, dtype=np.int32)
        for j in range(n - 1, i, -1):
            y = np.where(~E[(i, j)], np.int32(j), y)
        z = np.zeros(total, dtype=np.int32)
        for j in range(i + 1, n):
            z += (E[(i, j)] & (j > y)).astype(np.int32)
        RS[i] = y * scale + z

        yp = np.full(total, n, dtype=np.int32)
        for j in range(n - 1, i, -1):
            yp = np.where(~E[(j, i)], np.int32(j), yp)
        zp = np.zeros(total, dtype=np.int32)
        for j in range(i + 1, n):
            zp += (E[(j, i)] & (j > yp)).astype(np.int32)
        RT[i] = yp * scale + zp

    for i in range(n):
        lt = np.full(total, (i + 1) * scale, dtype=np.int32)
        ls = np.full(total, (i + 1) * scale, dtype=np.int32)
        for j in range(i):
            lt = np.where(E[(j, i)], np.minimum(lt, RS[j]), lt)
            ls = np.where(E[(i, j)], np.minimum(ls, RT[j]), ls)
        LT[i] = lt
        LS[i] = ls

    realizes = np.ones(total, dtype=bool)
    for u in range(n):
        for v in range(n):
            meets = (LS[u] <= RT[v]) & (LT[v] <= RS[u])
            want = True if u == v else E[(u, v)]
            realizes &= (meets == want) if u != v else meets
    assert np.array_equal(realizes, ~violated), f"converse fails at n={n}"

    # spot-check the production decision procedure against the arrays
    rng = random.Random(99)
    identity = Ordering(range(n))
    for _ in range(min(1500, total)):
        gi = rng.randrange(total)
        edges = [pairs[k] for k in range(len(pairs)) if gi >> k & 1]
        g = Digraph(n, edges, loops=range(n))
        verdict = check_reflexive_interval_ordering(g, identity,
                                                    find_witness=False) is None
        assert verdict == (not violated[gi])


def test_criterion_2_ordering_roundtrip():
    rng = random.Random(7)
    for trial in range(1000):
        rep = normalize(gen_reflexive_interval(rng.randint(1, 40), seed=trial))
        g = realize_digraph(rep)
        ordering = extract_duf_ordering(rep)
        assert check_reflexive_interval_ordering(g, ordering,
                                                 find_witness=False) is None
        built = build_representation(g, ordering)
        assert verify_representation(built, g)
    for n in range(2, 6):
        _exhaustive_converse_vectorized(n)
    _report(2, "representation round-trip on 1000 reps; exhaustive converse "
               "for every reflexive digraph with n<=5")


# ---------------------------------------------------------------------------

def test_criterion_3_kernel_perfection():
    rng = random.Random(13)
    for trial in range(1000):
        rep = gen_reflexive_interval(rng.randint(1, 60), seed=trial)
        n = rep.n
        for _ in range(10):
            keep = [v for v in range(n) if rng.random() < 0.7]
            if not keep:
                continue
            sub = normalize(IntervalRep([(rep.source[v], rep.target[v])
                                         for v in keep]))
            cert = kernel_linear(sub)  # raises if the sweep ever fails
            assert cert.all_checks_pass()
    _report(3, "kernel sweep succeeded on 10000 induced sub-representations")


# ---------------------------------------------------------------------------

def test_criterion_4_no_kernel_fixture(tmp_path):
    g, ordering = no_kernel_duf()
    assert optimal_kernel_duf(g, ordering, "min") is None
    assert brute_kernel(g, "exists") is None

    from intdigraph.cli import main
    from intdigraph.fileio import emit_digraph, emit_ordering
    dg = tmp_path / "fixture.dg"
    dg.write_text(emit_digraph(g))
    of = tmp_path / "fixture.ord"
    of.write_text(emit_ordering(ordering))
    assert main(["min-kernel", str(dg), str(of)]) == 2
    _report(4, "semicomplete fixture: solver and brute force agree on no-kernel")


# ---------------------------------------------------------------------------

def test_criterion_5_k33_exclusion():
    rng = random.Random(17)
    for trial in range(500):
        rep = gen_reflexive_interval(rng.randint(2, 30), seed=trial)
        h = underlying_undirected(realize_digraph(rep))
        assert find_induced_k33(h) is None
    from intdigraph import UndirectedGraph
    k33 = UndirectedGraph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])
    assert find_induced_k33(k33) is not None
    _report(5, "no induced 3+3 complete bipartite subgraph across 500 reps")


# ---------------------------------------------------------------------------

def test_criterion_6_point_point_equivalence():
    for n in range(1, 5):
        pairs = [(u, v) for u in range(n) for v in range(n)]
        for bits in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
            g = Digraph(n, edges)
            result = recognize_point_point(g)
            walk = brute_anti_directed_walk(g)
            if isinstance(result, PointRep):
                assert walk is None
                assert result.realize_digraph() == g
            else:
                assert walk is not None
                assert result.holds_in(g)

    assert isinstance(recognize_point_point(directed_triangle()), PointRep)
    from fixtures import anti_walk_example
    assert not isinstance(recognize_point_point(anti_walk_example()), PointRep)
    _report(6, "recognition equals anti-walk freeness for every digraph "
               "with n<=4, loops included")


# ---------------------------------------------------------------------------

def _canonical_loopless(g: Digraph):
    best = None
    for perm in itertools.permutations(range(g.n)):
        mapped = tuple(sorted((perm[u], perm[v]) for (u, v) in g.edges()))
        if best is None or mapped < best:
            best = mapped
    return (g.n, best)


def test_criterion_7_subdivision_arithmetic():
    host_budget = OracleBudget(subset_n=28)
    classes = {}
    for n in range(1, 5):
        for g in _loopless_digraphs(n):
            classes.setdefault(_canonical_loopless(g), g)

    for g in classes.values():
        m = g.m
        sub = k_subdivision(g, 2)  # kappa = 1
        assert sub.host.n == g.n + 2 * m

        origin_min = brute_kernel(g, "min")
        host_min = brute_kernel(sub.host, "min", budget=host_budget)
        assert (origin_min is None) == (host_min is None)
        if origin_min is not None:
            assert host_min.size == origin_min.size + m
            lifted = lift_set(sub, origin_min.vertices, "kernel")
            assert len(lifted) == origin_min.size + m
            assert project_set(sub, lifted, "kernel") == origin_min.vertices
            assert project_set(sub, host_min.vertices, "kernel") is not None

        origin_abs = brute_min_absorbing(g)
        lifted_abs = lift_set(sub, origin_abs.vertices, "absorbing")
        assert len(lifted_abs) == origin_abs.size + m
        projected = project_set(sub, lifted_abs, "absorbing")
        assert len(projected) <= origin_abs.size
        if sub.host.n <= 16:  # the enumeration oracle's budget
            host_abs = brute_min_absorbing(sub.host)
            assert host_abs.size == origin_abs.size + m
            assert len(project_set(sub, host_abs.vertices, "absorbing")) == \
                origin_abs.size
    _report(7, f"kernel/absorbing sizes shift by m across {len(classes)} "
               "isomorphism classes of loopless digraphs with n<=4")


# ---------------------------------------------------------------------------

def _best_of_two(fn):
    t0 = time.perf_counter()
    fn()
    first = time.perf_counter() - t0
    t0 = time.perf_counter()
    fn()
    return min(first, time.perf_counter() - t0)


def test_criterion_8_scaling_sanity():
    sweep_times = {}
    absorb_times = {}
    for n in (50_000, 100_000, 200_000):
        rep = normalize(gen_reflexive_interval(n, seed=42, grid=4 * n, max_len=6))
        sweep_times[n] = _best_of_two(lambda: kernel_linear(rep))
        absorb_times[n] = _best_of_two(lambda: min_absorbing_reflexive(rep))
    for times in (sweep_times, absorb_times):
        assert times[200_000] <= 3 * times[100_000] + 0.05, times
        assert all(t < 5.0 for t in times.values()), times

    dp_times = {}
    mis_times = {}
    for n in (500, 1000, 2000):
        rep = normalize(gen_reflexive_interval(n, seed=11, grid=4 * n, max_len=6))
        g = realize_digraph(rep)
        ordering = extract_duf_ordering(rep)
        assert g.m <= 3 * n  # sparse regime
        dp_times[n] = _best_of_two(lambda: optimal_kernel_duf(g, ordering, "min"))
        mis_times[n] = _best_of_two(lambda: max_independent_duf(g, ordering))
    for times in (dp_times, mis_times):
        assert times[1000] <= 5 * times[500] + 0.05, times
        assert times[2000] <= 5 * times[1000] + 0.05, times
    _report(8, f"sweep {sweep_times[200_000]:.2f}s and absorbing "
               f"{absorb_times[200_000]:.2f}s at n=200000; DP ratios "
               f"{dp_times[1000]/max(dp_times[500],1e-9):.1f}x, "
               f"{dp_times[2000]/max(dp_times[1000],1e-9):.1f}x; MIS ratios "
               f"{mis_times[1000]/max(mis_times[500],1e-9):.1f}x, "
               f"{mis_times[2000]/max(mis_times[1000],1e-9):.1f}x")


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


RANK_LINE_PASSES = ("rank_order", "reach_line", "below_counts")


def test_criterion_8_sweep_work_counts(monkeypatch):
    """The work the timed sweep bounds above measure, counted, so that load
    cannot fail it: per solve the rank-line passes are as many at both
    sizes, and the frontier asks ``reach`` at most n times."""
    calls = Counter()
    for name in RANK_LINE_PASSES:
        fn = getattr(intervals, name)
        for module in (intervals, domination):
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, _counted(calls, name, fn))
    walk = intervals.frontier_walk

    def frontier_walk(lo, hi, reach, size):
        return walk(lo, hi, _counted(calls, "reach", reach), size)
    monkeypatch.setattr(intervals, "frontier_walk", frontier_walk)
    monkeypatch.setattr(domination, "frontier_walk", frontier_walk)
    passes = {}
    for n in (2_000, 8_000):
        rep = normalize(gen_reflexive_interval(n, seed=42, grid=4 * n, max_len=6))
        for solve in (kernel_linear, min_absorbing_reflexive):
            calls.clear()
            solve(rep)
            assert 0 < calls["reach"] <= n, (solve.__name__, n, calls)
            passes[solve, n] = [calls[name] for name in RANK_LINE_PASSES]
    for solve in (kernel_linear, min_absorbing_reflexive):
        assert passes[solve, 2_000] == passes[solve, 8_000], passes
        assert passes[solve, 2_000][0] >= 1  # the frontier's own order


def test_criterion_8_kernel_table_work_counts(monkeypatch):
    """The kernel table's coverage counts, counted: position i tries c0(i),
    its first non-in-neighbour above it, and the out-neighbours of c0(i)
    above c0(i), so ``covered`` runs at most sum over i of d+(c0(i))."""
    calls = Counter()
    monkeypatch.setattr(ordering_module, "covered",
                        _counted(calls, "covered", ordering_module.covered))
    for n in (500, 2_000):
        rep = normalize(gen_reflexive_interval(n, seed=11, grid=4 * n, max_len=6))
        g, ordering = realize_digraph(rep), extract_duf_ordering(rep)
        out_pos, in_pos = placed = ordering.place(g)
        bound = 0
        for i in range(n):
            c0 = i + 1
            while c0 in in_pos[i]:
                c0 += 1
            bound += len(out_pos[c0]) if c0 < n else 0
        for objective in ("min", "max"):
            calls.clear()
            compute_kernel_table(ordering, placed, objective)
            assert 0 < calls["covered"] <= bound, (n, objective, calls, bound)


# ---------------------------------------------------------------------------

def test_criterion_9_class_separations():
    assert brute_ordering_search(directed_triangle(), "duf") is None
    assert brute_ordering_search(symmetric_triangle(), "duf") is not None
    assert brute_ordering_search(oriented_k33_with_loops(),
                                 "reflexive-interval") is None

    (adj_a, adj_b), _ = splitting_bigraph(symmetric_triangle())
    assert sum(map(len, adj_a)) == 6
    assert all(len(adj_a[a]) == 2 for a in range(3))
    assert all(len(adj_b[b]) == 2 for b in range(3))
    seen = {(0, "a")}
    frontier = [(0, "a")]
    while frontier:
        node, side = frontier.pop()
        for w in (adj_a[node] if side == "a" else adj_b[node]):
            nxt = (w, "b" if side == "a" else "a")
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    assert len(seen) == 6  # connected and 2-regular: a single six-cycle
    _report(9, "triangle/bipartite separating fixtures all classified as expected")
