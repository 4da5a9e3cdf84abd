"""The CLI lays its payloads out through the C JSON encoder, and the bytes
are exactly those of ``json.dumps(payload, indent=2)``."""

import json
import tracemalloc
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from intdigraph import cli
from intdigraph.cli import _layout, build_parser, main
from intdigraph.fileio import emit_digraph
from intdigraph.generators import gen_subdivided


class Pair(NamedTuple):
    first: object
    second: object


SCALARS = (st.none() | st.booleans() | st.integers()
           | st.floats(allow_nan=True, allow_infinity=True) | st.text(max_size=6))
KEYS = st.text(max_size=4) | st.integers(-3, 3) | st.floats() | st.booleans() | st.none()


def _nest(children):
    return (st.lists(children, max_size=4) | st.tuples(children, children)
            | st.builds(Pair, children, children)
            | st.dictionaries(st.text(max_size=4), children, max_size=4)
            | st.dictionaries(KEYS, children, max_size=3))


PAYLOADS = st.recursive(SCALARS, _nest, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS)
@example([Pair(1, [True, None]), Pair("\né", {})])
@example({"s": {1: [2.5, float("nan")], "a": ()}, "t": [[], {"☃": -0.0}]})
@example({"status": "ok", "points": {"s": [0, 1], "t": [2, 3]}})
@example({"paths": [["],", "]\n["], (), Pair("]", 2.5), [[]]], "ends": [[], [None]]})
def test_layout_is_the_indented_encoding(x):
    assert _layout(x, "\n") == json.dumps(x, indent=2)


@settings(max_examples=200, deadline=None)
@given(PAYLOADS, st.integers(1, 3))
@example({"s": [1, 2, 3, 4, 5], "t": [], "u": [6]}, 2)
@example([[], [1], [2, 3, 4], [], [5, 6], (7,)], 2)
@example({"a": 1, "b": "x", "c": None, "d": 2.5}, 1)
def test_layout_is_the_indented_encoding_at_any_batch(x, batch):
    """Runs of scalars and batches of arrays cut at every size."""
    saved, cli._BATCH = cli._BATCH, batch
    try:
        assert _layout(x, "\n") == json.dumps(x, indent=2)
    finally:
        cli._BATCH = saved


def test_long_arrays_lay_out_in_about_twice_their_text():
    """A ``recognize-pp``-shaped payload, two lists of 25k ints, peaks at
    most 2.2 times its text (one C call per list peaked at about 6.5)."""
    payload = {"status": "ok", "points": {"s": list(range(0, 50_000, 2)),
                                          "t": list(range(1, 50_000, 2))}}
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        text = _layout(payload, "\n")
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert text == json.dumps(payload, indent=2)
    assert peak <= 2.2 * len(text), peak / len(text)


def payload_and_stdout(capsys, argv):
    """The payload the command builds, and what ``main`` prints for it."""
    args = build_parser().parse_args(argv)
    payload, code = args.func(args)
    assert main(argv) == code
    return payload, capsys.readouterr().out


@pytest.mark.parametrize("seed", [0, 1])
def test_main_prints_the_indented_encoding(capsys, tmp_path, seed):
    sub = gen_subdivided(7, 0.4, 2, seed)
    files = {"host.dg": emit_digraph(sub.host), "origin.dg": emit_digraph(sub.origin)}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    host, origin = str(tmp_path / "host.dg"), str(tmp_path / "origin.dg")
    for argv in (["recognize-pp", host], ["recognize-pp", origin],
                 ["subdivide", origin, "--k", "3"]):
        payload, out = payload_and_stdout(capsys, argv)
        assert out == json.dumps(payload, indent=2) + "\n"
