"""The library's interval and digraph parsers against the line walk kept
in ``parse_reference``: on clean files and on files with one mutation,
the same result or a ``ParseError`` with the same line and message.
Files end their lines with ``"\\n"``, with ``"\\r\\n"`` throughout or with
any mix of the line breaks of ``str.splitlines``, and may hold non-ASCII
spaces and digits or the ``;`` that the library's flat split uses as its
line marker.

One property per drawn file makes all the comparisons: the library's
parser against the line walk and, on an intervals file, against the pair
reader it replaced, its bulk reader against the per-line split, and the
JSON reader against the flat split."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph.errors import ParseError
from intdigraph.fileio import parse_digraph, parse_interval_rep
from intdigraph.intervals import normalize

import parse_reference
from parse_reference import _chunked_int_fields

MUTATIONS = ("none", "drop", "add", "x", "1/0", "3/2", "split", "duplicate",
             "out-of-range", "lo>hi", "header+1", "header-1", "header<0",
             "arabic-digits", "marker", "marker-token", "merge", "break-record")
BREAKS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
          "\u2028", "\u2029")
JSON_INT = re.compile(r"-?(0|[1-9][0-9]*)")
ARABIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664"
                                     "\u0665\u0666\u0667\u0668\u0669")


@st.composite
def files(draw, kind):
    """An intervals or digraph file, laid out with random blank lines,
    tabs, indents and (in some files) ``\\x1f`` and no-break spaces, its
    lines ended by ``"\\n"``, by ``"\\r\\n"`` or by a mix of line breaks,
    its records in order or permuted, then given at most one mutation."""
    n = draw(st.integers(0, 6))
    coord = st.integers(-4, 9)
    if kind == "intervals":
        records = []
        for v in range(n):
            a, b, c, d = (draw(coord) for _ in range(4))
            records.append([v, min(a, b), max(a, b), min(c, d), max(c, d)])
    else:
        vertex = st.integers(0, max(n - 1, 0))
        records = [] if n == 0 else [[draw(vertex), draw(vertex)]
                                     for _ in range(draw(st.integers(0, 8)))]
    if draw(st.booleans()):
        records = draw(st.permutations(records))
    lines = [[kind, str(n)]] + [[str(x) for x in r] for r in records]
    mutation = draw(st.sampled_from(MUTATIONS))
    _mutate(draw, lines, mutation, kind, n)
    spaces = [" ", "\t", "  ", " \t "] + [" \x1f", "\xa0"] * draw(st.booleans())
    seps = draw(st.lists(st.sampled_from(spaces), min_size=len(lines), max_size=len(lines)))
    out = []
    blank_lines = draw(st.booleans())
    for tokens, sep in zip(lines, seps):
        if blank_lines and draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "   ", "\t"])))
        indent = draw(st.sampled_from(["", "", " ", "\t"]))
        out.append(indent + sep.join(tokens))
    mixed = draw(st.booleans())
    eol = "\n" if mixed else draw(st.sampled_from(["\n", "\r\n"]))
    breaks = st.sampled_from(BREAKS) if mixed else st.just(eol)
    text = "".join(line + draw(breaks) for line in out)
    return text[:-len(eol)] + draw(st.sampled_from([eol, "", eol * 2]))


def _mutate(draw, lines, mutation, kind, n):
    """Apply ``mutation`` in place; a mutation with nothing to act on
    leaves the file clean."""
    records = lines[1:]
    where = [(i, j) for i, tokens in enumerate(lines) for j in range(len(tokens))]
    if mutation in ("drop", "x", "1/0", "3/2"):
        i, j = draw(st.sampled_from(where))
        if mutation == "drop":
            del lines[i][j]
        else:
            lines[i][j] = mutation
    elif mutation == "add":
        i = draw(st.integers(0, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i])))
        lines[i].insert(j, draw(st.sampled_from(["0", "7", "-2", "x"])))
    elif mutation == "split" and len(records) >= 2:
        i = draw(st.integers(1, len(lines) - 2))
        joined = lines[i] + lines[i + 1]
        cut = len(lines[i]) - 1
        lines[i:i + 2] = [joined[:cut], joined[cut:]]
    elif mutation == "duplicate" and kind == "intervals" and len(records) >= 2:
        i, j = draw(st.lists(st.integers(1, len(lines) - 1), min_size=2,
                             max_size=2, unique=True))
        lines[i][0] = lines[j][0]
    elif mutation == "out-of-range" and records:
        i = draw(st.integers(1, len(lines) - 1))
        j = 0 if kind == "intervals" else draw(st.integers(0, 1))
        lines[i][j] = str(draw(st.sampled_from([n, n + 3, -1])))
    elif mutation == "lo>hi" and kind == "intervals" and records:
        i = draw(st.integers(1, len(lines) - 1))
        j = draw(st.sampled_from([1, 3]))
        lines[i][j] = str(int(lines[i][j + 1]) + 1)
    elif mutation == "arabic-digits":
        i, j = draw(st.sampled_from(where))
        lines[i][j] = lines[i][j].translate(ARABIC)
    elif mutation == "marker" and records:
        i = draw(st.integers(1, len(lines) - 1))
        j = draw(st.integers(0, len(lines[i]) - 1))
        lines[i][j] += ";"
    elif mutation == "marker-token":
        i = draw(st.integers(0, len(lines) - 1))
        lines[i].insert(draw(st.integers(0, len(lines[i]))), ";")
    elif mutation == "merge" and len(records) >= 2:
        # two records on one line, a stray token or a ``;`` between them
        i = draw(st.integers(1, len(lines) - 2))
        lines[i:i + 2] = [lines[i] + [draw(st.sampled_from(["0", ";"]))] + lines[i + 1]]
    elif mutation == "break-record" and records:
        # a line break of any kind inside a record
        i = draw(st.integers(1, len(lines) - 1))
        j = draw(st.integers(1, len(lines[i]) - 1))
        lines[i][j - 1:j + 1] = [lines[i][j - 1] + draw(st.sampled_from(BREAKS)) + lines[i][j]]
    elif mutation.startswith("header"):
        lines[0][1] = str({"header+1": n + 1, "header-1": n - 1,
                           "header<0": -n - 1}[mutation])


def _outcome(parse, text):
    try:
        return "ok", parse(text)
    except ParseError as exc:
        return "error", (exc.line, str(exc).split(": ", 1)[1])


def _first_arc_out_of_range(text):
    rows = list(parse_reference._lines(text))
    n = int(rows[0][1][1])
    return next(line for line, tokens in rows[1:]
                if not all(0 <= int(t) < n for t in tokens))


@pytest.mark.parametrize("brk", BREAKS)
@pytest.mark.parametrize("parse,text", [
    (parse_digraph, "digraph 3\n0 1\n1{}2\n"),
    (parse_interval_rep, "intervals 2\n0 0 1 0 1\n1 2 3{}2 3\n"),
])
def test_a_line_break_inside_a_record(parse, text, brk):
    """Every line break splits the record, as in the line walk."""
    text = text.format(brk)
    reference = getattr(parse_reference, parse.__name__)
    assert _outcome(parse, text) == _outcome(reference, text)
    assert _outcome(parse, text)[0] == "error"


def _splittable(text):
    """Whether the flat split may read ``text``: ASCII, no ``;``, no line
    break but ``"\\n"`` and no blank line before the last record."""
    return (text.isascii() and ";" not in text
            and "\n".join(text.splitlines()) == text.removesuffix("\n")
            and all(line.strip() for line in text.rstrip().split("\n")))


def assert_json_reader_matches_the_flat_split(text, kind, width):
    """Equal fields wherever the JSON reader reads a text; a text the flat
    split read (CRLF line ends made ``"\\n"``) is declined only for a token
    JSON rejects."""
    got = _chunked_int_fields(text, kind, width)
    want = parse_reference._flat_int_fields(text.replace("\r\n", "\n"), kind, width)
    if got is not None:
        assert got == want
    elif want is not None:
        body = text.split("\n", 1)[1].split()
        assert any(map(_json_rejects, body)), text


def _json_rejects(token: str) -> bool:
    return JSON_INT.fullmatch(token) is None or len(token.lstrip("-")) > 4300


def _assert_every_reader_agrees(text, kind, width, parse):
    # the library's parser against the line walk
    reference = getattr(parse_reference, parse.__name__)
    want_kind, want = _outcome(reference, text)
    got_kind, got = _outcome(parse, text)
    assert got_kind == want_kind
    if want_kind == "ok" and kind == "intervals":
        assert got.pairs() == want.pairs()
        assert got.adjusted == want.adjusted
        a, b = normalize(got), normalize(want)
        assert (a.ls, a.rs, a.lt, a.rt, a.adjusted) == (b.ls, b.rs, b.lt, b.rt, b.adjusted)
    elif want_kind == "error" and want[1].startswith("edge ("):
        # The one intended change: the arc's own line, not the header's.
        assert got == (_first_arc_out_of_range(text), want[1])
    else:
        assert got == want
    if kind == "intervals":
        # the column reader against the pair reader it replaced
        old_kind, old = _outcome(parse_reference.pairs_parse_interval_rep, text)
        assert old_kind == got_kind
        if old_kind == "ok":
            assert (got.ls, got.rs, got.lt, got.rt) == (old.ls, old.rs, old.lt, old.rt)
            assert got.pairs() == old.pairs() and got.adjusted == old.adjusted
        else:
            assert got == old
    # the bulk reader against the per-line split it replaced: the same
    # fields, and a decline only of a text the flat split may not read
    got = _chunked_int_fields(text, kind, width)
    want = parse_reference._int_fields(text, kind, width)
    if got is not None:
        assert got == want
    elif want is not None:
        assert not _splittable(text)
    # the JSON reader against the flat split
    assert_json_reader_matches_the_flat_split(text, kind, width)


@settings(max_examples=500, deadline=None)
@given(files("intervals"))
def test_interval_file_matches_every_reference(text):
    _assert_every_reader_agrees(text, "intervals", 5, parse_interval_rep)


@settings(max_examples=500, deadline=None)
@given(files("digraph"))
def test_digraph_file_matches_every_reference(text):
    _assert_every_reader_agrees(text, "digraph", 2, parse_digraph)
