import os
import re
import resource
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import intdigraph
from intdigraph import (Digraph, Interval, IntervalBigraphRep, IntervalRep, Ordering,
                        normalize, realize_digraph)
from intdigraph.errors import ParseError
from intdigraph.fileio import (detect_kind, emit_bigraph_rep, emit_digraph,
                               emit_interval_rep, emit_ordering,
                               parse_bigraph_rep, parse_digraph,
                               parse_interval_rep, parse_ordering,
                               parse_vertex_set, parse_weights)
from intdigraph.generators import gen_random_digraph, gen_reflexive_interval, gen_subdivided

from fixtures import no_kernel_duf, two_vertex_example_rep
from parse_reference import _chunked_int_fields


def normalize_ws(text: str) -> str:
    return "\n".join(re.sub(r"\s+", " ", line).strip()
                     for line in text.strip().splitlines())


class TestDigraphFormat:
    def test_round_trip(self):
        g, _ = no_kernel_duf()
        text = emit_digraph(g)
        assert parse_digraph(text) == g
        assert normalize_ws(emit_digraph(parse_digraph(text))) == normalize_ws(text)

    def test_loops_encoded_as_equal_endpoints(self):
        g = Digraph(2, [(0, 1)], loops=[1])
        text = emit_digraph(g)
        assert "1 1" in text
        assert parse_digraph(text) == g

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(ParseError) as exc:
            parse_digraph("digraph 2\n0 1\n0\n")
        assert exc.value.line == 3
        with pytest.raises(ParseError):
            parse_digraph("graph 2\n")
        with pytest.raises(ParseError) as exc2:
            parse_digraph("digraph 2\n0 5\n")
        assert "out of range" in str(exc2.value)
        assert exc2.value.line == 2


# Parses stdin in a child limited to 1 GiB of address space: a parser that
# built its n lists before failing would stop there, slowly, instead of
# taking the memory of the whole test run.
HUGE_PARSE = """
import sys, time
from intdigraph.errors import ParseError
from intdigraph.fileio import parse_digraph
start = time.perf_counter()
try:
    parse_digraph(sys.stdin.read())
except ParseError as exc:
    print(exc.line, time.perf_counter() - start, exc)
"""


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("n,error", [(2**62, "MemoryError"), (2**63, "OverflowError")])
@pytest.mark.parametrize("arcs,flat", [("0 1\n", True), ("0 1\r\n", True),
                                       ("0\t1\r1\t0\r\n", False)])
def test_huge_header_with_arcs_fails_at_once(n, error, arcs, flat):
    """Arcs after a header too large to allocate, read by the bulk reader
    (``\\n`` or CRLF line ends) or, with a lone ``\\r``, by the line walk:
    a line 1 error within a second."""
    text = f"digraph {n}\n{arcs}"
    assert (_chunked_int_fields(text, "digraph", 2) is not None) == flat
    env = dict(os.environ, PYTHONPATH=str(Path(intdigraph.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", HUGE_PARSE], input=text, text=True,
                          capture_output=True, env=env, timeout=60,
                          preexec_fn=_limit_address_space)
    assert proc.stdout, proc.stderr
    line, seconds, message = proc.stdout.split(" ", 2)
    assert line == "1" and float(seconds) < 1.0
    assert message.startswith(f"line 1: header declares {n} vertices")
    assert message.rstrip().endswith(f"({error})")


def _canonical(text, kind, width):
    """``text`` read by the flat split, which must not decline it."""
    fields = _chunked_int_fields(text, kind, width)
    assert fields is not None
    tokens = text.split()
    assert fields == (int(tokens[1]), list(map(int, tokens[2:])))
    return fields


@pytest.mark.parametrize("seed", range(4))
def test_generator_outputs_take_the_flat_split(seed):
    """Emitted files are read in bulk, so a silent fall-back to the line
    walk fails here instead of only costing time."""
    rep = gen_reflexive_interval(40 * seed, seed, max_len=6)
    digraphs = [realize_digraph(rep), gen_random_digraph(30, 0.2, 0.3, seed),
                gen_subdivided(10, 0.3, 2, seed).host, Digraph(seed)]
    for g in digraphs:
        _canonical(emit_digraph(g), "digraph", 2)
        assert parse_digraph(emit_digraph(g)) == g
    _canonical(emit_interval_rep(rep), "intervals", 5)
    assert parse_interval_rep(emit_interval_rep(rep)).pairs() == rep.pairs()


def _traced(build):
    """``(build(), peak, kept)``: the bytes ``build()`` allocated at its
    peak and those still held after it."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - base, kept - base


def test_parse_digraph_stays_small():
    """A dense digraph file is read in bounded chunks and each head is the
    one int object of its id.  The whole-body scan peaked at 104 bytes per
    arc, kept 34 and left 89,172 distinct head objects for n = 2,000.  A
    header-only file builds no id table and peaks as before."""
    rep = gen_reflexive_interval(2000, 7, grid=8000, max_len=200)
    text = emit_digraph(realize_digraph(rep))
    g, peak, kept = _traced(lambda: parse_digraph(text))
    assert g.m == 101_267
    assert peak <= 50 * g.m, peak / g.m
    assert kept <= 16 * g.m, kept / g.m
    assert len({id(v) for heads in g.out_adj for v in heads}) <= g.n
    n = 100_000
    g, peak, _ = _traced(lambda: parse_digraph(f"digraph {n}\n"))
    assert g.n == n and peak <= 75 * n, peak / n


def test_parse_interval_rep_fills_the_columns_chunk_by_chunk():
    """A clean intervals file is split into its columns chunk by chunk.
    Joining every chunk into one list of 5n ints before slicing it peaked
    at 260 bytes per vertex for n = 20,000; the columns peak at 184."""
    n = 20_000
    text = emit_interval_rep(gen_reflexive_interval(n, 4, grid=4 * n, max_len=6))
    rep, peak, _ = _traced(lambda: parse_interval_rep(text))
    assert rep.n == n and peak <= 220 * n, peak / n


def test_line_walk_keeps_only_the_endpoints():
    """A ``p/q`` file takes the line walk, which keeps the four columns and
    no :class:`Interval`.  Two kept ``Interval`` objects per vertex held
    486 bytes per vertex for n = 5,000; the columns hold 374."""
    n = 5000
    rep = gen_reflexive_interval(n, 4, grid=4 * n, max_len=6)
    text = f"intervals {n}\n" + "".join(
        f"{v} {a}/1 {b}/1 {c}/1 {d}/1\n" for v, (a, b, c, d)
        in enumerate(zip(rep.ls, rep.rs, rep.lt, rep.rt)))
    got, _, kept = _traced(lambda: parse_interval_rep(text))
    assert (got.ls, got.rs, got.lt, got.rt) == (rep.ls, rep.rs, rep.lt, rep.rt)
    assert kept <= 420 * n, kept / n


class TestIntervalFormat:
    def test_round_trip_with_rationals(self):
        rep = two_vertex_example_rep()
        text = emit_interval_rep(rep)
        assert "3/2" in text
        back = parse_interval_rep(text)
        assert back.pairs() == rep.pairs()
        assert normalize_ws(emit_interval_rep(back)) == normalize_ws(text)

    def test_fractions_print_as_str_does(self):
        """``p/q``, or ``p`` for a whole Fraction, signed as ``str`` prints it."""
        rep = IntervalRep([(Interval(Fraction(-3, 4), Fraction(4, 2)),
                            Interval(0, Fraction(1, 3)))])
        text = emit_interval_rep(rep)
        assert text == "intervals 1\n0 -3/4 2 0 1/3\n"
        assert parse_interval_rep(text).pairs() == rep.pairs()

    def test_missing_vertex(self):
        with pytest.raises(ParseError) as exc:
            parse_interval_rep("intervals 2\n0 0 1 0 1\n")
        assert "missing intervals" in str(exc.value)

    def test_duplicate_vertex(self):
        with pytest.raises(ParseError):
            parse_interval_rep("intervals 1\n0 0 1 0 1\n0 2 3 2 3\n")

    def test_malformed_interval(self):
        with pytest.raises(ParseError) as exc:
            parse_interval_rep("intervals 1\n0 5 1 0 1\n")
        assert exc.value.line == 2


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-5, 5)] * 4), max_size=10), st.data())
def test_halved_endpoints_normalize_like_integers(ends, data):
    """Writing endpoints x as ``2x/2`` sends a file down the line walk; it
    must normalize exactly as the bulk-read integer file does."""
    rows = [(min(a, b), max(a, b), min(c, d), max(c, d)) for a, b, c, d in ends]
    halve = iter(data.draw(st.lists(st.booleans(), min_size=4 * len(rows),
                                    max_size=4 * len(rows))))

    def text(spell):
        return f"intervals {len(rows)}\n" + "".join(
            f"{v} {' '.join(spell(x) for x in row)}\n" for v, row in enumerate(rows))

    plain = normalize(parse_interval_rep(text(str)))
    mixed = normalize(parse_interval_rep(text(
        lambda x: f"{2 * x}/2" if next(halve) else str(x))))
    assert ((plain.ls, plain.rs, plain.lt, plain.rt, plain.adjusted)
            == (mixed.ls, mixed.rs, mixed.lt, mixed.rt, mixed.adjusted))


class TestBigraphFormat:
    def test_round_trip(self):
        rep = IntervalBigraphRep([Interval(0, 1), Interval(2, Fraction(7, 2))],
                                 [Interval(1, 2)])
        text = emit_bigraph_rep(rep)
        back = parse_bigraph_rep(text)
        assert (back.a_lo, back.a_hi, back.b_lo, back.b_hi) == (
            rep.a_lo, rep.a_hi, rep.b_lo, rep.b_hi) == ((0, 2), (1, Fraction(7, 2)), (1,), (2,))
        assert normalize_ws(emit_bigraph_rep(back)) == normalize_ws(text)

    def test_bad_part(self):
        with pytest.raises(ParseError):
            parse_bigraph_rep("bigraph 1 1\nC 0 0 1\nB 0 0 1\n")


class TestOrderingFormat:
    def test_round_trip(self):
        ordering = Ordering((2, 0, 1))
        text = emit_ordering(ordering)
        assert parse_ordering(text).perm == (2, 0, 1)
        assert normalize_ws(emit_ordering(parse_ordering(text))) == normalize_ws(text)

    def test_empty_ordering_round_trips(self):
        for text in (emit_ordering(Ordering(())), "", "  \n\n"):
            assert parse_ordering(text) == Ordering(())
        assert emit_ordering(parse_ordering("\n")) == "\n"

    def test_not_a_permutation(self):
        with pytest.raises(ParseError):
            parse_ordering("0 0 1\n")

    def test_multi_line_rejected(self):
        with pytest.raises(ParseError):
            parse_ordering("0 1\n2\n")


def test_detect_and_dispatch():
    g, ordering = no_kernel_duf()
    assert detect_kind(emit_digraph(g)) == "digraph"
    assert detect_kind(emit_interval_rep(two_vertex_example_rep())) == "intervals"
    assert detect_kind("bigraph 1 1\nA 0 0 1\nB 0 0 1\n") == "bigraph"
    assert detect_kind(emit_ordering(ordering)) == "ordering"
    with pytest.raises(ParseError):
        detect_kind("   \n\n")


def test_detect_kind_reads_only_the_first_token():
    """The kind of a large file costs what its first token costs: splitting
    all 100,000 lines of this one to read that token peaked at 6.0 MB."""
    text = "\n \n digraph 1000\n" + "0 1\n" * 100_000
    detect_kind("digraph 0\n")  # compiles the pattern outside the trace
    kind, peak, _ = _traced(lambda: detect_kind(text))
    assert kind == "digraph" and peak < 4096


def test_weights_and_vertex_sets():
    assert parse_weights("1 2 3\n") == [1, 2, 3]
    assert parse_vertex_set("4\n7 1\n") == [4, 7, 1]
    with pytest.raises(ParseError):
        parse_weights("1 x\n")
