"""The chunked reader of clean integer files against the whole-body scan
it replaced, at chunk sizes that put every record, blank line and bad
line on a chunk edge.

``fileio._int_chunks`` reads the body in chunks of whole lines of about
``fileio._CHUNK`` characters.  At any chunk size, its chunks joined
(``parse_reference._chunked_int_fields``) must give exactly what
``parse_reference._json_int_fields`` gave, a
decline included, and ``parse_digraph`` / ``parse_interval_rep`` must
return what the whole-body scan returned (``parse_reference``'s
``json_parse_*``) or, on a text it left to the line walk, agree with the
line walk.  The reader properties of ``test_int_fields.py`` are run again
at small chunk sizes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import fileio
from intdigraph.fileio import parse_digraph, parse_interval_rep

import parse_reference
from parse_reference import _chunked_int_fields
import test_int_fields
from test_int_fields import HOSTILE, _assert_like_the_line_walk, integer_texts
from test_parse_reference import files

# 1 makes every line its own chunk; 7 cuts inside records and blank runs.
SMALL_CHUNKS = (1, 7)
CHUNKS = (*SMALL_CHUNKS, fileio._CHUNK)
WHOLE_BODY = {parse_digraph: parse_reference.json_parse_digraph,
              parse_interval_rep: parse_reference.json_parse_interval_rep}
KIND = {parse_digraph: ("digraph", 2), parse_interval_rep: ("intervals", 5)}


def _texts(kind):
    """Drawn files of ``kind``, clean or mutated, clean integer layouts with
    odd tokens, and hostile bodies after a valid header."""
    width = dict(test_int_fields.KINDS)[kind]
    layouts = integer_texts().filter(lambda case: case[0] == kind).map(lambda case: case[2])
    hostile = st.builds(lambda n, body: f"{kind} {n}\n{body}", st.integers(0, 4),
                        st.text(alphabet=HOSTILE, max_size=80))
    clean = st.lists(st.lists(st.integers(0, 5).map(str), min_size=width, max_size=width),
                     max_size=30).map(lambda rows: f"{kind} 6\n" + "".join(
                         " ".join(row) + "\n" for row in rows))
    return files(kind) | layouts | hostile | clean


def _assert_like_the_whole_body_scan(parse, text):
    kind, width = KIND[parse]
    assert _chunked_int_fields(text, kind, width) == parse_reference._json_int_fields(
        text, kind, width)
    want = WHOLE_BODY[parse](text)
    if want is None:
        _assert_like_the_line_walk(parse, text)
    elif parse is parse_digraph:
        got = parse(text)
        assert (got.n, got.m, got.out_adj, got.loops) == (want.n, want.m, want.out_adj,
                                                          want.loops)
    else:
        got = parse(text)
        assert (got.ls, got.rs, got.lt, got.rt, got.adjusted) == (
            want.ls, want.rs, want.lt, want.rt, want.adjusted)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CHUNKS), st.data())
def test_digraph_files_match_the_whole_body_scan(chunk, data):
    text = data.draw(_texts("digraph"), label="text")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK", chunk)
        _assert_like_the_whole_body_scan(parse_digraph, text)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CHUNKS), st.data())
def test_interval_files_match_the_whole_body_scan(chunk, data):
    text = data.draw(_texts("intervals"), label="text")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK", chunk)
        _assert_like_the_whole_body_scan(parse_interval_rep, text)


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("prop", [test_int_fields.test_json_reader_matches_the_flat_split,
                                  test_int_fields.test_hostile_bodies_match_the_line_walk],
                         ids=lambda prop: prop.__name__)
def test_reader_properties_hold_at_small_chunks(monkeypatch, prop, chunk):
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    prop()


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@pytest.mark.parametrize("parse,text", [
    (parse_digraph, "digraph 4\n0 1\n1 2\n\n2 3\n"),
    (parse_digraph, "digraph 4\n0 1\n1 2\n2 3\n3 x\n"),
    (parse_digraph, "digraph 4\n0 1\n1 2\n2 3\n3 4\n"),
    (parse_digraph, "digraph 4\n0 1\n1 2\n2 3\n3 -1\n"),
    (parse_digraph, "digraph 4\n0 1\n1 2\n2 3\n3\n"),
    (parse_digraph, "digraph 4\n0 1\n1 2\n2 3\n \n\t\n\n"),
    (parse_interval_rep, "intervals 3\n0 0 1 0 1\n1 1 2 1 2\n\n2 2 3 2 3\n"),
    (parse_interval_rep, "intervals 3\n0 0 1 0 1\n1 1 2 1 2\n2 2 3 2 3/2\n"),
    (parse_interval_rep, "intervals 3\n0 0 1 0 1\n1 1 2 1 2\n2 3 2 2 3\n"),
])
def test_a_late_line_on_a_chunk_edge(monkeypatch, parse, text, chunk):
    """A blank line, a bad token, an end out of range, a short record or
    trailing blank lines past the first chunks: the same outcome as the
    whole-body scan, or the line walk's error on the same line."""
    monkeypatch.setattr(fileio, "_CHUNK", chunk)
    _assert_like_the_whole_body_scan(parse, text)
