"""Reconcile ROADMAP's baseline table with the benchmark's metric names.

    python3 perfbench/reconcile.py

Re-measures every row of ROADMAP's baseline table on the instances it
names (acceptance criterion 8: ``gen_reflexive_interval(n, seed=42,
grid=4n, max_len=6)`` at n = 200,000 for the sweeps, seed 11 for the DP
rows), through the benchmark's own paths: CLI subprocesses for the
end-to-end rows, traced in-process ``cli.main`` calls for the layer rows.
Times are in the benchmark's nominal seconds (see ``run.py``), medians
over ``REPEATS`` repeats.  A row is flagged when the measurement falls outside the
ROADMAP figure widened by ROADMAP's stated +-20% noise.  Writes its
instances under ``perfbench/work/reconcile/``.
"""

from __future__ import annotations

import os
import statistics
import sys

import run
from intdigraph.fileio import emit_digraph, emit_interval_rep, emit_ordering
from intdigraph.generators import gen_reflexive_interval
from intdigraph.intervals import extract_duf_ordering, normalize, realize_digraph
from intdigraph.kernels import kernel_linear

NOISE = 0.2
SWEEP_N = 200_000
REPEATS = 3

# ROADMAP row, its figure (low, high), unit, benchmark metric, measurement key
SWEEP_ROWS = [
    ("CLI `kernel` end to end", (6.5, 6.5), "s", "kernel_s", "cli:kernel"),
    ("CLI `kernel` peak RSS", (333, 333), "MB", "peak_rss_mb", "rss:kernel"),
    ("CLI `absorbing` end to end", (6.8, 6.8), "s", "absorbing_s", "cli:absorbing"),
    ("CLI `dominating` end to end", (10.6, 10.6), "s", "dominating_s", "cli:dominating"),
    ("CLI `dominating` peak RSS", (414, 414), "MB", "peak_rss_mb", "rss:dominating"),
    ("`normalize` (in `kernel`)", (2.7, 2.7), "s", "intervals.normalize_s",
     "self:kernel:intervals.normalize"),
    ("`z_sequence` forward sweep", (1.7, 1.7), "s", "kernels.z_sequence_s",
     "self:kernel:kernels.z_sequence"),
    ("`kernel_linear` self-check", (1.12, 1.12), "s", "intervals.set_checks_s",
     "self:kernel:intervals.set_checks"),
    ("`NormalizedRep.swapped()` with its re-normalize", (3.9, 3.9), "s",
     "intervals.swapped_s (inclusive)", "total:dominating:intervals.swapped"),
    ("`build_red_blue_state` (in `absorbing`)", (1.7, 1.7), "s",
     "domination.build_red_blue_state_s", "self:absorbing:domination.build_red_blue_state"),
    ("`realize_digraph` (m = 349k, in `verify`)", (1.4, 1.4), "s",
     "intervals.realize_digraph_s", "self:verify:intervals.realize_digraph"),
]
DP_ROWS = {
    1_000: [((0.15, 0.20), "self:min_kernel:kernels.compute_kernel_table"),
            ((0.04, 0.04), "total:mis:independent.max_independent_duf"),
            ((0.003, 0.003), "self:check_duf:ordering.verify_duf_ordering")],
    2_000: [((0.62, 0.68), "self:min_kernel:kernels.compute_kernel_table"),
            ((0.11, 0.11), "total:mis:independent.max_independent_duf"),
            ((0.007, 0.007), "self:check_duf:ordering.verify_duf_ordering")],
    4_000: [((3.0, 3.2), "self:min_kernel:kernels.compute_kernel_table"),
            ((0.64, 0.64), "total:mis:independent.max_independent_duf"),
            ((0.011, 0.011), "self:check_duf:ordering.verify_duf_ordering")],
}
DP_METRICS = {"kernels.compute_kernel_table": "kernels.compute_kernel_table_s",
              "independent.max_independent_duf": "independent.max_independent_duf_s "
                                                 "(inclusive)",
              "ordering.verify_duf_ordering": "ordering.verify_duf_ordering_s"}


def measure(calls: dict, clock: run.SpeedClock) -> dict:
    """Median over REPEATS of every 'cli:', 'rss:', 'self:' and 'total:' key."""
    out = run.WORK / "reconcile" / "out.json"
    samples: dict[str, list] = {}
    for _ in range(REPEATS):
        for name, argv in calls.items():
            code, secs, _, mb = clock.call(run.CLI_MAIN, argv, out)
            if code != 0:
                raise RuntimeError(f"{name} exited with {code}: {out.read_text()[:300]}")
            samples.setdefault(f"cli:{name}", []).append(secs)
            samples.setdefault(f"rss:{name}", []).append(mb)
            tracer = run.spans.Tracer()
            clock.factor()
            code, _, _ = run.spans.run_main(argv, tracer, name)
            factor = clock.factor()
            totals: dict[str, float] = {}
            for span, start, end, _, _ in tracer.spans:
                totals[span] = totals.get(span, 0.0) + (end - start) * factor
            for span, t in tracer.self_times().items():
                samples.setdefault(f"self:{name}:{span}", []).append(t * factor)
            for span, t in totals.items():
                samples.setdefault(f"total:{name}:{span}", []).append(t)
    return {k: statistics.median(v) for k, v in samples.items()}


def verdict(value: float, lo: float, hi: float) -> str:
    if value < lo * (1 - NOISE):
        return "FLAG: lower"
    if value > hi * (1 + NOISE):
        return "FLAG: higher"
    return "agrees"


def main() -> int:
    work = run.WORK / "reconcile"
    work.mkdir(parents=True, exist_ok=True)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # as run.py does
    with run.Launcher(dict(os.environ, PYTHONPATH=str(run.SRC))) as launcher:
        report(work, run.SpeedClock(launcher))
    return 0


def report(work, clock: run.SpeedClock) -> None:
    """Print the two reconciliation tables as Markdown."""
    rep = gen_reflexive_interval(SWEEP_N, 42, grid=4 * SWEEP_N, max_len=6)
    (work / "sweep.irep").write_text(emit_interval_rep(rep))
    kernel = kernel_linear(normalize(rep)).vertices
    (work / "sweep.set").write_text(" ".join(map(str, kernel)) + "\n")
    del rep
    irep, kset = str(work / "sweep.irep"), str(work / "sweep.set")
    got = measure({"kernel": ["kernel", irep], "absorbing": ["absorbing", irep],
                   "dominating": ["dominating", irep],
                   "verify": ["verify", irep, kset, "--kind", "kernel"]},
                  clock)
    print(f"| ROADMAP row (n = {SWEEP_N:,}) | ROADMAP | measured | metric | verdict |")
    print("|---|---|---|---|---|")
    for row, (lo, hi), unit, metric, key in SWEEP_ROWS:
        fig = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
        print(f"| {row} | {fig} {unit} | {got[key]:.3g} {unit} | `{metric}` "
              f"| {verdict(got[key], lo, hi)} |")

    print()
    print("| DP row (seed 11) | n | ROADMAP | measured | metric | verdict |")
    print("|---|---|---|---|---|---|")
    for n, rows in DP_ROWS.items():
        nrep = normalize(gen_reflexive_interval(n, 11, grid=4 * n, max_len=6))
        (work / "dp.dg").write_text(emit_digraph(realize_digraph(nrep)))
        (work / "dp.ord").write_text(emit_ordering(extract_duf_ordering(nrep)))
        dg, order = str(work / "dp.dg"), str(work / "dp.ord")
        got = measure({"min_kernel": ["min-kernel", dg, order], "mis": ["mis", dg, order],
                       "check_duf": ["check-ordering", dg, order, "--kind", "duf"]},
                      clock)
        for (lo, hi), key in rows:
            fig = f"{lo:g}" if lo == hi else f"{lo:g}-{hi:g}"
            span = key.split(":")[2]
            print(f"| `{span.split('.')[1]}` | {n:,} | {fig} s | {got[key]:.3g} s "
                  f"| `{DP_METRICS[span]}` | {verdict(got[key], lo, hi)} |")


if __name__ == "__main__":
    sys.exit(main())
