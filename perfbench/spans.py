"""In-process tracing of the CLI path, from outside the package.

:class:`Tracer` wraps the public functions of each ``intdigraph`` module
for the length of one call, so that ``cli.main`` runs unchanged while
every call into a layer records a span (name, start, end, parent,
instance).  A wrapped name is replaced in every ``intdigraph`` module that
imported it, which also catches calls one layer makes into another (the
kernel sweep's set checks, the DPs' self-checks).  Spans stay in memory;
:meth:`Tracer.self_times` turns them into per-layer self time, a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from time import perf_counter

from intdigraph import cli

# (module, attribute) -> span name.  A dotted attribute is a method.
TRACED = {
    ("cli", "main"): "cli.main",
    ("fileio", "parse_interval_rep"): "fileio.parse_interval_rep",
    ("fileio", "parse_digraph"): "fileio.parse_digraph",
    ("fileio", "parse_ordering"): "fileio.parse_other",
    ("fileio", "parse_weights"): "fileio.parse_other",
    ("fileio", "parse_vertex_set"): "fileio.parse_other",
    ("fileio", "detect_kind"): "fileio.parse_other",
    ("intervals", "normalize"): "intervals.normalize",
    ("intervals", "NormalizedRep.swapped"): "intervals.swapped",
    ("intervals", "realize_digraph"): "intervals.realize_digraph",
    ("intervals", "set_is_independent"): "intervals.set_checks",
    ("intervals", "set_is_absorbing"): "intervals.set_checks",
    ("intervals", "set_is_dominating"): "intervals.set_checks",
    ("kernels", "z_sequence"): "kernels.z_sequence",
    ("kernels", "kernel_linear"): "kernels.kernel_linear",
    ("kernels", "compute_kernel_table"): "kernels.compute_kernel_table",
    ("kernels", "optimal_kernel_duf"): "kernels.optimal_kernel_duf",
    ("kernels", "optimal_kernel_adjusted"): "kernels.optimal_kernel_adjusted",
    ("domination", "min_absorbing_reflexive"): "domination.min_absorbing_reflexive",
    ("domination", "min_dominating_reflexive"): "domination.min_dominating_reflexive",
    ("domination", "build_red_blue_state"): "domination.build_red_blue_state",
    ("domination", "red_blue_min_dominating"): "domination.red_blue_min_dominating",
    ("independent", "chain_dag"): "independent.chain_dag",
    ("independent", "max_independent_duf"): "independent.max_independent_duf",
    ("ordering", "verify_duf_ordering"): "ordering.verify_duf_ordering",
    ("ordering", "check_reflexive_interval_ordering"):
        "ordering.check_reflexive_interval_ordering",
    ("graphs", "verify_set"): "graphs.verify_set",
    ("pointpoint", "recognize_point_point"): "pointpoint.recognize_point_point",
}
EMIT = "cli.emit"  # json.dumps of the payload, the CLI's only use of it


class Tracer:
    """Spans as [name, start, end, parent index, instance] lists."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self.instance = None

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if name == "intervals.realize_digraph":
                self.counts["intervals.m"] = self.counts.get("intervals.m", 0) + result.m
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced name wherever the package bound it; restore after."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "intdigraph" or k.startswith("intdigraph.")]
        undo = []
        for (mod, attr), name in TRACED.items():
            owner = sys.modules[f"intdigraph.{mod}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                undo.append((cls, meth, cls.__dict__[meth]))
                setattr(cls, meth, self._wrap(name, cls.__dict__[meth]))
                continue
            orig = getattr(owner, attr)
            wrapped = self._wrap(name, orig)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        undo.append((m, key, orig))
                        setattr(m, key, wrapped)
        undo.append((json, "dumps", json.dumps))
        json.dumps = self._wrap(EMIT, json.dumps)
        try:
            yield
        finally:
            for target, key, orig in reversed(undo):
                setattr(target, key, orig)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Self time per span name over spans[first:]."""
        spans = self.spans
        child = [0.0] * len(spans)
        for i in range(first, len(spans)):
            _, start, end, parent, _ = spans[i]
            if parent >= first:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i in range(first, len(spans)):
            name, start, end, _, _ = spans[i]
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out


def run_main(argv, tracer: Tracer | None = None, instance=None):
    """Run ``cli.main(argv)`` in-process; returns (exit code, stdout, seconds)."""
    buf = io.StringIO()
    if tracer is None:
        ctx = contextlib.nullcontext()
    else:
        tracer.instance = instance
        ctx = tracer.installed()
    with ctx:
        with contextlib.redirect_stdout(buf):
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
    return code, buf.getvalue(), elapsed
