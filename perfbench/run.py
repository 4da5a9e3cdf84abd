"""End-to-end benchmark of the ``intdigraph`` CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from anywhere inside a checkout; the package is imported from
``src/``.  Set-up generates the workload's seeded instance files under
``perfbench/work/<workload>/`` (three times; the median is ``setup_s``),
records their manifest and computes the answer references.  Then, for at
least ``--seconds`` seconds and at least three passes, one client runs
the eleven CLI calls of a pass one after another, each a fresh
interpreter started by ``launcher.py``, and the answer gate checks every
output.  Before the passes, three untimed calls that must be rejected
check that the checkers can still say no.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``:
per-command time, pass time and child peak RSS, all medians
over passes.  ``--trace 1`` reports the ``per_layer`` metrics: each pass
also times ``import intdigraph.cli`` in its own interpreter and runs the
same calls in-process through ``cli.main``, once traced (spans around
every public function of every layer) and once untraced, which gives
the tracing overhead.  ``<command>.unaccounted_s`` is the command's
untraced CLI time minus ``cli.import_s`` and its traced ``cli.main``
span: interpreter start-up beyond the import, teardown and process
handling.

Every time is in seconds at a nominal machine speed.  Shared virtual
CPUs (measured on a 2-vCPU 2.1 GHz Xeon VM) change speed by up to +-25%
from one second to the next, so the benchmark pins itself and its
children to one CPU and scales each measured time (for a CLI call, the
child's CPU time) by two speed gauges read around and during the work
(see ``SpeedClock``).  The CPU seconds of a pass as measured are in the
report.

The last line of standard output is one JSON object with keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it are the human-readable report.  A wrong answer, or set-up files that
differ between repetitions, make the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"
SETUP_REPEATS = 3
MIN_PASSES = 3
# Gauge readings at the nominal speed, medians on a 2.1 GHz Xeon vCPU.
NOMINAL_CAL_S = 0.05  # CPU seconds of `python3 -c pass`
NOMINAL_SAMPLE_S = 0.0007  # seconds of one speed_sample()
CAL_SAMPLES = 15
CLI_MAIN = "import sys; from intdigraph.cli import main; sys.exit(main())"
IMPORT_ONLY = "import intdigraph.cli"

sys.path.insert(0, str(SRC))
try:
    import gate
    import spans
    import workloads
except ModuleNotFoundError:  # no src/intdigraph here: main() reports it
    gate = spans = workloads = None
from launcher import speed_sample


class Launcher:
    """CLI children, started one at a time by ``launcher.py``, a small
    helper process, so that their peak RSS is their own."""

    def __init__(self, env):
        self._proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).with_name("launcher.py"))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)

    def spawn(self, code: str, argv, out_path: Path) -> tuple[int, float, float, float]:
        """One child interpreter: (exit code, CPU seconds, peak RSS in MB,
        median speed sample in seconds)."""
        self._proc.stdin.write(json.dumps([code, list(argv), str(out_path)]) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError(f"launcher exited with {self._proc.wait()}")
        exit_code, cpu_s, rss_mb, sample_s = json.loads(reply)
        return exit_code, cpu_s, rss_mb, sample_s

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.stdout.close()
        self._proc.wait()


class SpeedClock:
    """Converts measured seconds to seconds at the nominal speed.

    Two gauges, combined by their geometric mean: the CPU seconds of an
    empty interpreter (``python3 -c pass``) run right before and right
    after the work, which track start-up and page-fault costs, and the
    median ``speed_sample()``, which tracks pure-Python compute.  For a CLI
    call the samples are the ones ``launcher.py`` took while the call ran;
    for in-process work, samples taken right before and right after it.
    """

    def __init__(self, launcher: Launcher):
        self.launcher = launcher
        self.last = self._calibrate()

    def _calibrate(self) -> tuple[float, float]:
        cpu_s = self.launcher.spawn("pass", [], Path(os.devnull))[1]
        return cpu_s, statistics.median(speed_sample() for _ in range(CAL_SAMPLES))

    def factor(self, sample_s: float = None) -> float:
        """Scale for work that ended just now, from the calibrations on
        either side of it and, if given, the speed sampled during it."""
        now = self._calibrate()
        interpreter_s = (self.last[0] + now[0]) / 2
        if sample_s is None:
            sample_s = (self.last[1] + now[1]) / 2
        self.last = now
        return math.sqrt(NOMINAL_CAL_S / interpreter_s * NOMINAL_SAMPLE_S / sample_s)

    def call(self, code: str, argv, out_path: Path) -> tuple[int, float, float, float]:
        """One CLI child: (exit code, nominal seconds, CPU seconds as
        measured, peak RSS in MB)."""
        exit_code, cpu_s, rss_mb, sample_s = self.launcher.spawn(code, argv, out_path)
        return exit_code, cpu_s * self.factor(sample_s), cpu_s, rss_mb


def setup(workdir: Path, sizes: dict, seed: int, clock: SpeedClock):
    """Build the instances SETUP_REPEATS times; (instances, median seconds,
    whether every repetition wrote identical files)."""
    times, manifests, inst = [], [], None
    clock.factor()
    for _ in range(SETUP_REPEATS):
        inst = None  # let the previous references go before building anew
        start = perf_counter()
        inst = workloads.build(workdir, sizes, seed)
        times.append((perf_counter() - start) * clock.factor())
        manifests.append(inst.manifest)
    return inst, statistics.median(times), all(m == manifests[0] for m in manifests)


def cli_pass(inst, checker, clock: SpeedClock):
    """The eleven calls as subprocesses: per-command nominal seconds, the
    CPU seconds as measured, and the peak RSS."""
    out = inst.workdir / "out.json"
    walls, raw, rss = {}, {}, 0.0
    clock.factor()  # a fresh calibration right before the first call
    for name, args in workloads.CALLS:
        code, walls[name], raw[name], mb = clock.call(CLI_MAIN, inst.argv(args), out)
        checker.check(name, code, out.read_text())
        rss = max(rss, mb)
    return walls, raw, rss


def inprocess_pass(inst, checker, clock: SpeedClock, tracer=None):
    """The eleven calls through cli.main: per-command nominal seconds,
    nominal self seconds per span name, and output bytes."""
    secs, layers, out_bytes = {}, {}, 0
    clock.factor()
    for name, args in workloads.CALLS:
        first = len(tracer.spans) if tracer else 0
        code, text, raw = spans.run_main(inst.argv(args), tracer, name)
        factor = clock.factor()
        secs[name] = raw * factor
        if tracer:
            for span, t in tracer.self_times(first).items():
                layers[span] = layers.get(span, 0.0) + t * factor
        checker.check(name, code, text)
        out_bytes += len(text.encode())
    return secs, layers, out_bytes


def percentile_note(samples) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 10:
        return f"{n} samples, none with ten beyond the highest percentile"
    k = n - 10
    return f"p{100 * k / n:.0f} = {sorted(samples)[k - 1]:.4f} s over {n} samples"


def measure_end_to_end(inst, checker, clock, seconds: float, setup_s: float):
    walls, raws, rss = [], [], []
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        w, raw, r = cli_pass(inst, checker, clock)
        walls.append(w)
        raws.append(sum(raw.values()))
        rss.append(r)
    med = statistics.median
    totals = [sum(w.values()) for w in walls]
    metrics = {"wall_s": med(totals), "peak_rss_mb": med(rss), "setup_s": setup_s}
    for name in workloads.COMMANDS:
        metrics[f"{name}_s"] = med([w[name] for w in walls])
    notes = [f"wall_s {percentile_note(totals)}",
             f"wall_s as measured, CPU seconds: median {med(raws):.4f} s, "
             f"min {min(raws):.4f} s, max {max(raws):.4f} s"]
    return metrics, notes


def measure_layers(inst, checker, clock, seconds: float):
    tracer = spans.Tracer()
    imports, walls, traced, untraced, layers = [], [], [], [], []
    counts = {}
    out = inst.workdir / "out.json"
    start = perf_counter()
    while len(walls) < MIN_PASSES or perf_counter() - start < seconds:
        clock.factor()
        code, secs, _, _ = clock.call(IMPORT_ONLY, [], out)
        if code != 0:
            raise RuntimeError(f"'{IMPORT_ONLY}' exited with {code}")
        imports.append(secs)
        walls.append(cli_pass(inst, checker, clock)[0])
        for traced_now in ((True, False) if len(walls) % 2 else (False, True)):
            if traced_now:
                tracer.counts = {}
                per_call, self_times, out_bytes = inprocess_pass(inst, checker, clock, tracer)
                traced.append(per_call)
                layers.append(self_times)
                counts = dict(tracer.counts, **{"cli.out_bytes": out_bytes})
            else:
                untraced.append(sum(inprocess_pass(inst, checker, clock)[0].values()))
    med = statistics.median
    metrics = {"cli.import_s": med(imports)}
    for name in sorted({k for pass_ in layers for k in pass_}):
        metrics[f"{name}_s"] = med([pass_.get(name, 0.0) for pass_ in layers])
    metrics.update(counts)
    metrics["fileio.in_bytes"] = sum(inst.in_bytes(args) for _, args in workloads.CALLS)
    traced_total = med([sum(t.values()) for t in traced])
    metrics["trace.traced_pass_s"] = traced_total
    metrics["trace.untraced_pass_s"] = med(untraced)
    metrics["trace.overhead_ratio"] = traced_total / med(untraced)
    for name in workloads.COMMANDS:
        metrics[f"{name}.unaccounted_s"] = (med([w[name] for w in walls])
                                            - metrics["cli.import_s"]
                                            - med([t[name] for t in traced]))
    spans_path = inst.workdir / "spans.json"
    spans_path.write_text(json.dumps(
        {"fields": ["name", "start", "end", "parent", "instance"],
         "spans": tracer.spans}))
    notes = [f"{len(layers)} traced passes; spans in {spans_path.relative_to(ROOT)}"]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, every check on (the benchmark's own tests)")
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if (workloads is None or not (SRC / "intdigraph" / "cli.py").is_file()
            or not bench_file.is_file()):
        print(f"perfbench: no package under {SRC} or no {bench_file}; "
              "run inside a checkout of the repository", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())

    if args.workload not in workloads.SIZES:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.SIZES)}")
    sizes = workloads.SMOKE_SIZES if args.smoke else workloads.SIZES[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # children inherit it
    with Launcher(env) as launcher:
        clock = SpeedClock(launcher)
        inst, setup_s, deterministic = setup(WORK / args.workload, sizes, args.seed, clock)
        manifest = json.dumps(inst.manifest, sort_keys=True, indent=1)
        (inst.workdir / "manifest.json").write_text(manifest + "\n")
        checker = gate.Gate(inst.refs)
        out = inst.workdir / "out.json"
        launcher.spawn(IMPORT_ONLY, [], out)  # warm the caches
        for name, call_args in workloads.REJECT_CALLS:  # once, untimed
            code, *_ = launcher.spawn(CLI_MAIN, inst.argv(call_args), out)
            checker.check(name, code, out.read_text())
        if args.trace:
            values, notes = measure_layers(inst, checker, clock, args.seconds)
            specs = bench["per_layer"]
        else:
            values, notes = measure_end_to_end(inst, checker, clock, args.seconds,
                                               setup_s)
            specs = bench["end_to_end"]

    correct = checker.failed == 0 and deterministic
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    for entry in inst.manifest:
        print(f"  instance {entry['file']:<15} n={entry['n']:<7} m={entry['m']:<8} "
              f"{entry['bytes']} bytes  sha256 {entry['sha256'][:16]}")
    print(f"  manifest sha256 {hashlib.sha256(manifest.encode()).hexdigest()}"
          f"{'' if deterministic else '  (set-up repetitions DIFFER)'}")
    for name, answer in checker.answers.items():
        print(f"  answer {name:<20} {answer}")
    metrics = {}
    for spec in specs:
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
        print(f"  {spec['name']:<42} {values[spec['name']]:>14.6g} {spec['unit']}")
    print(f"  {'failed_ratio':<42} {checker.failed / checker.attempted:>14.6g} "
          f"({checker.failed} of {checker.attempted} calls)")
    for note in notes:
        print(f"  {note}")
    for error in checker.errors[:20]:
        print(f"  FAILED {error}")
    print(json.dumps({"correct": correct, "attempted": checker.attempted,
                      "failed": checker.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
