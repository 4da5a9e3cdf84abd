"""The JSON-scanner reader of clean integer files against the flat split
it replaced, and the parsers on hostile bodies against the line walk.

``fileio._int_chunks`` turns a body into JSON arrays, one per chunk,
joined by ``parse_reference._chunked_int_fields``.  The join must give
the flat split's ``(n, fields)`` (kept as
``parse_reference._flat_int_fields``) whenever it reads a text, and may
decline a text the flat split read only for a token that is an integer to
``int`` but not a JSON number; a CRLF text is held to the flat split of
its ``"\\n"`` form.  Whatever it reads or declines, ``parse_digraph`` and
``parse_interval_rep`` must agree with the line walk of
``parse_reference``.  The drawn files of ``test_parse_reference`` get the
same comparison there, in one property with the others."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph.errors import ParseError
from intdigraph.fileio import parse_digraph, parse_interval_rep

import parse_reference
from parse_reference import _chunked_int_fields
from test_parse_reference import (_first_arc_out_of_range, _outcome,
                                  assert_json_reader_matches_the_flat_split)

KINDS = (("digraph", 2), ("intervals", 5))
WIDTH = dict(KINDS)
# Spellings ``int`` reads and JSON does not, and tokens neither reads.
ODD_TOKENS = ("007", "+5", "1_000", "-0", "00", "-", "--1", "1-2", "+", "_1", "x")
BLANKS = (" ", " ", " ", "\t", "  ", "\x1f", " \t\x1f ")
HOSTILE = "0123456789-+_ \t\n\x1f;"


@st.composite
def integer_texts(draw):
    """A ``<kind> <n>`` file of records near the right width, its tokens
    plain integers or odd spellings, laid out with any blanks the flat
    split reads: indents, runs, tabs, ``\\x1f``, trailing blanks and blank
    lines, its lines ended by ``"\\n"`` or by ``"\\r\\n"``."""
    kind, width = draw(st.sampled_from(KINDS))
    token = st.integers(-20, 3000).map(str) | st.sampled_from(ODD_TOKENS)
    sizes = st.sampled_from([width] * 6 + [width - 1, width + 1])
    rows = [[kind, draw(token)]] + [draw(st.lists(token, min_size=k, max_size=k))
                                    for k in draw(st.lists(sizes, max_size=6))]
    lines = []
    for tokens in rows:
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
        blank = st.sampled_from(BLANKS)
        lines.append(draw(st.sampled_from(["", "", " ", "\t"]))
                     + "".join(t + draw(blank) for t in tokens).rstrip()
                     + draw(st.sampled_from(["", "", " ", "\t "])))
    text = "\n".join(lines) + draw(st.sampled_from(["", "\n", "\n\n", "\n \n"]))
    return kind, width, text.replace("\n", "\r\n") if draw(st.booleans()) else text


@settings(max_examples=200, deadline=None)
@given(integer_texts())
def test_json_reader_matches_the_flat_split(case):
    """Equal fields wherever it reads a text; a text the flat split read is
    declined only for a token JSON rejects."""
    kind, width, text = case
    assert_json_reader_matches_the_flat_split(text, kind, width)


def _assert_like_the_line_walk(parse, text):
    """The same result as the line walk, or the same error and line; an
    arc out of range names its own line, the one intended difference."""
    reference = getattr(parse_reference, parse.__name__)
    kind, want = _outcome(reference, text)
    got_kind, got = _outcome(parse, text)
    assert got_kind == kind, (text, got, want)
    if kind == "ok" and parse is parse_interval_rep:
        assert got.pairs() == want.pairs() and got.adjusted == want.adjusted
    elif kind == "error" and want[1].startswith("edge ("):
        assert got == (_first_arc_out_of_range(text), want[1])
    else:
        assert got == want


@settings(max_examples=400, deadline=None)
@given(st.sampled_from([parse_digraph, parse_interval_rep]), st.integers(0, 4),
       st.text(alphabet=HOSTILE, max_size=80))
def test_hostile_bodies_match_the_line_walk(parse, n, body):
    """A valid header, then random text over digits, signs, ``_``, blanks,
    line ends and ``;``."""
    kind = "digraph" if parse is parse_digraph else "intervals"
    _assert_like_the_line_walk(parse, f"{kind} {n}\n{body}")


LONG = "9" * 5000  # past the 4300 digits ``int`` reads from a string


@pytest.mark.parametrize("parse,text,line", [
    (parse_digraph, "digraph 3\n0 1\n2 -\n", 3),
    (parse_digraph, "digraph 3\n-\n", 2),
    (parse_digraph, f"digraph 3\n0 1\n{LONG} 1\n", 3),
    (parse_digraph, f"digraph {LONG}\n0 1\n", 1),
    (parse_interval_rep, "intervals 1\n0 0 - 1 1\n", 2),
    (parse_interval_rep, f"intervals 1\n0 0 {LONG} 1 1\n", 2),
])
def test_tokens_json_rejects_fail_on_their_line(parse, text, line):
    """A lone ``-`` and a token past the digit limit are declined by the
    JSON reader, and the line walk names their line."""
    kind = "digraph" if parse is parse_digraph else "intervals"
    assert _chunked_int_fields(text, kind, WIDTH[kind]) is None
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == line
    _assert_like_the_line_walk(parse, text)


@pytest.mark.parametrize("parse,text", [
    (parse_digraph, "digraph 12\n007 1\n1 +2\n1_0 0\n"),
    (parse_interval_rep, "intervals 2\n0 007 8 -0 1\n1 +1 1_000 00 2\n"),
])
def test_spellings_json_rejects_take_the_line_walk(parse, text):
    """``007``, ``+2``, ``1_000``: integers to ``int``, declined by the
    JSON reader, read by the line walk as before."""
    kind = "digraph" if parse is parse_digraph else "intervals"
    assert _chunked_int_fields(text, kind, WIDTH[kind]) is None
    assert parse_reference._flat_int_fields(text, kind, WIDTH[kind]) is not None
    _assert_like_the_line_walk(parse, text)


@pytest.mark.parametrize("brk", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"])
@pytest.mark.parametrize("parse", [parse_digraph, parse_interval_rep])
def test_a_line_break_inside_the_header(parse, brk):
    """``str.split`` reads these as blanks, the line walk as line ends: the
    header is split, as in the line walk."""
    kind = "digraph" if parse is parse_digraph else "intervals"
    text = f"{kind}{brk}1\n" + ("0 0\n" if kind == "digraph" else "0 0 1 0 1\n")
    assert _chunked_int_fields(text, kind, WIDTH[kind]) is None
    _assert_like_the_line_walk(parse, text)


@pytest.mark.parametrize("text,line", [
    ("digraph 3\n0 1\n2 -1\n", 3),
    ("digraph 3\n-1 0\n0 2\n", 2),
    ("digraph 3\r\n0 1\r\n1 -3\r\n", 3),
    ("digraph 3\n0 1\n1 3\n", 3),
])
def test_an_arc_end_out_of_range_fails_on_its_line(text, line):
    """A clean file is read in bulk and then range-checked: a negative end
    (which ``heads[-1]`` would take) or one of n goes to the line walk."""
    assert _chunked_int_fields(text, "digraph", 2) is not None
    with pytest.raises(ParseError) as exc:
        parse_digraph(text)
    assert exc.value.line == line
    _assert_like_the_line_walk(parse_digraph, text)


@pytest.mark.parametrize("parse,text", [
    (parse_digraph, "digraph 3\r\n0 1\r\n\t1  2 \r\n2 0\r\n\r\n"),
    (parse_interval_rep, "intervals 2\r\n0 0 1 -1 1\r\n1 2 3 2 3\r\n"),
])
def test_crlf_files_take_the_bulk_reader(parse, text):
    """Every ``\\r`` starts a ``\\r\\n``: read in bulk as the ``\\n`` file;
    one lone ``\\r`` sends the file to the line walk."""
    kind = "digraph" if parse is parse_digraph else "intervals"
    lf = text.replace("\r\n", "\n")
    assert _chunked_int_fields(text, kind, WIDTH[kind]) == _chunked_int_fields(
        lf, kind, WIDTH[kind]) is not None
    _assert_like_the_line_walk(parse, text)
    lone = text.replace("\r\n", "\r", 1)
    assert _chunked_int_fields(lone, kind, WIDTH[kind]) is None
    _assert_like_the_line_walk(parse, lone)
