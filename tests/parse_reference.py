"""The line-by-line parsers, kept as the differential reference.

:func:`intdigraph.fileio.parse_interval_rep` and
:func:`intdigraph.fileio.parse_digraph` now read a clean integer file in
bulk and leave every other file to this line walk.
``test_parse_reference.py`` checks on clean and mutated files that both
give the same result or the same ``ParseError``.  The one intended
difference: for an arc out of range, this reference names the header's
line and the library names the arc's own line.

:func:`_int_fields` is the first bulk reader, one token list per line.
:func:`_flat_int_fields` is the second, which split the whole text once and
declined (returned None for) the texts it could not split so: non-ASCII
text, text with a ``;`` or a line break other than ``"\\n"``, and text
with a blank line before its last record.  On every other text both give
the same result.  :func:`_json_int_fields` is the third, which scanned
the whole body as one JSON array and declined, beyond those texts, only
texts with a token that ``int`` reads and JSON does not
(``test_int_fields.py``); :func:`_bucketed` filled a digraph from its flat
list.  :func:`json_parse_digraph` and :func:`json_parse_interval_rep` give
what the library's parsers returned from that whole-body scan, or None for
a text they left to the line walk.  The library's reader scans the same
body in bounded chunks of lines and must agree with the third reader on
every text, whatever the chunk size: :func:`_chunked_int_fields` joins
its chunks, as the library's ``_int_fields`` did before an intervals file
was split into its columns chunk by chunk.  :func:`pairs_parse_interval_rep`
is the library's ``parse_interval_rep`` of that time, which sliced the
joined list into columns and built two :class:`Interval` objects per
vertex on the line walk.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, islice
from operator import le

from intdigraph.errors import ParseError
from intdigraph.fileio import _header, _int_chunks
from intdigraph.graphs import Digraph
from intdigraph.intervals import Interval, IntervalRep


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line.split()


def _int_fields(text: str, kind: str, width: int):
    """``(n, fields)``: the header's n and the records' integers in file
    order, when a ``<kind> <n>`` header is followed only by records of
    ``width`` plain integers; else None, and the caller walks the lines."""
    rows = list(filter(None, map(str.split, text.splitlines())))
    if (not rows or rows[0][0] != kind or len(rows[0]) != 2
            or not set(map(len, islice(rows, 1, None))) <= {width}):
        return None
    try:
        return int(rows[0][1]), list(map(int, chain.from_iterable(islice(rows, 1, None))))
    except ValueError:
        return None


def _flat_int_fields(text: str, kind: str, width: int):
    """``(n, fields)``: the header's n and the records' integers in file
    order, when the first line is ``<kind> <n>`` and every later one but
    trailing blank lines holds ``width`` plain integers; else None, and the
    caller walks the lines.  The text is split once, each ``"\\n"`` made a
    ``;`` token, so the record width is one check that ``;`` stands after
    every ``width`` tokens (one anywhere else is no integer).  Only ASCII
    text with no ``;`` and no line break but ``"\\n"`` is split so."""
    if not text.isascii() or any(map(text.__contains__, "\r\x0b\x0c\x1c\x1d\x1e;")):
        return None
    tokens = (text.rstrip() + "\n").replace("\n", " ; ").split()
    head, step = tokens[:3], width + 1
    del tokens[:3]
    if (head[0] != kind or head[2:] != [";"]
            or tokens[width::step].count(";") * step != len(tokens)):
        return None
    del tokens[width::step]
    try:
        return int(head[1]), list(map(int, tokens))
    except ValueError:
        return None


# Body bytes: the alphabet of signed decimal records stays, each space, tab
# and ``\x1f`` becomes ``,`` and every other byte ``;``, which declines.
_BODY = bytes(c if c in b"0123456789-\n" else 44 if c in b" \t\x1f" else 59
              for c in range(256))


def _json_int_fields(text: str, kind: str, width: int):
    """``(n, fields)``: the header's n and the records' integers in file
    order, when the first line is ``<kind> <n>`` and every later one but
    trailing blank lines holds ``width`` plain integers; else None, and the
    caller walks the lines.

    The body is read by one ``json.loads``, so no token becomes a string:
    each run of blanks is made one ``,`` and each line end a ``null``, and
    the record width is one check that ``null`` stands after every
    ``width`` numbers and nowhere else.  Only ASCII text with no line break
    but ``"\\n"`` (each ``"\\r\\n"`` is read as one) and a body of digits,
    ``-`` and blanks is read so; a token JSON rejects (``007``, ``+5``, a
    lone ``-``, more digits than ``int`` takes) declines the text too."""
    if "\r" in text:  # a lone "\r" left by this declines below
        text = text.replace("\r\n", "\n")
    header, _, data = text.partition("\n")
    if not text.isascii() or any(map(header.__contains__, "\r\x0b\x0c\x1c\x1d\x1e")):
        return None
    head = header.split()
    data = data.encode().translate(_BODY).decode().rstrip(",\n")
    if len(head) != 2 or head[0] != kind or ";" in data:
        return None
    lines, step = data.count("\n") + 1 if data else 0, width + 1
    data = data.replace("\n", ",null,")
    while ",," in data:  # blank runs, indents and trailing blanks
        data = data.replace(",,", ",")
    try:
        n = int(head[1])
        fields = json.loads(f"[{data.strip(',')},null]") if lines else []
    except ValueError:
        return None
    if len(fields) != lines * step or fields[width::step].count(None) != lines:
        return None
    del fields[width::step]
    return n, fields


def _bucketed(n: int, fields: list[int]) -> Digraph:
    """The digraph of the flat arcs ``fields``, every end in ``[0, n)``."""
    loops = [False] * n  # first, so an n too large to allocate fails at once
    heads: list[list[int]] = [[] for _ in range(n)]
    ends = iter(fields)
    for u, v in zip(ends, ends):
        heads[u].append(v)
    return Digraph.from_heads(heads, loops)


def json_parse_digraph(text: str) -> Digraph | None:
    """The digraph the whole-body scan read, or None for a text it left to
    the line walk."""
    clean = _json_int_fields(text, "digraph", 2)
    if clean is not None:
        n, fields = clean
        if max(fields, default=-1) < n and min(fields, default=0) >= 0:
            return _bucketed(n, fields)
    return None


def json_parse_interval_rep(text: str) -> IntervalRep | None:
    """The representation the whole-body scan read, or None for a text it
    left to the line walk."""
    clean = _json_int_fields(text, "intervals", 5)
    if clean is not None:
        n, fields = clean
        ids, ls, rs, lt, rt = (fields[i::5] for i in range(5))
        if (len(ids) == n and ids == list(range(n))
                and all(map(le, ls, rs)) and all(map(le, lt, rt))):
            return IntervalRep.from_columns(ls, rs, lt, rt)
    return None


def _int(token: str, lineno: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(lineno, f"expected an integer, got {token!r}") from None


def _counts(tokens: list[str], lineno: int, records: int) -> list[int]:
    """Header counts, checked before anything is allocated.

    Every item needs exactly one record line, so a sum above the number of
    records leaves some item missing; once it is at most that number, the
    per-record range and duplicate checks make every item present.
    """
    counts = [_int(t, lineno) for t in tokens]
    if any(c < 0 for c in counts):
        raise ParseError(lineno, f"negative count in header: {' '.join(tokens)}")
    if sum(counts) > records:
        raise ParseError(lineno, f"missing intervals: header declares {sum(counts)}, "
                                 f"file has {records} records")
    return counts


def _rational(token: str, lineno: int):
    try:
        if "/" in token:
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected an integer or p/q rational, got {token!r}") from None


def parse_digraph(text: str) -> Digraph:
    rows = list(_lines(text))
    if not rows or rows[0][1][0] != "digraph":
        raise ParseError(rows[0][0] if rows else 1, "expected 'digraph <n>' header")
    lineno, header = rows[0]
    if len(header) != 2:
        raise ParseError(lineno, "expected 'digraph <n>' header")
    n = _int(header[1], lineno)
    edges = []
    for lineno, tokens in rows[1:]:
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected '<u> <v>', got {' '.join(tokens)!r}")
        edges.append((_int(tokens[0], lineno), _int(tokens[1], lineno)))
    try:
        return Digraph(n, edges)
    except ValueError as exc:
        raise ParseError(rows[0][0], str(exc)) from None


def parse_interval_rep(text: str) -> IntervalRep:
    rows = list(_lines(text))
    if not rows or rows[0][1][0] != "intervals":
        raise ParseError(rows[0][0] if rows else 1, "expected 'intervals <n>' header")
    lineno, header = rows[0]
    if len(header) != 2:
        raise ParseError(lineno, "expected 'intervals <n>' header")
    n, = _counts(header[1:], lineno, len(rows) - 1)
    pairs: list = [None] * n
    for lineno, tokens in rows[1:]:
        if len(tokens) != 5:
            raise ParseError(lineno, "expected '<v> <lS> <rS> <lT> <rT>'")
        v = _int(tokens[0], lineno)
        if not (0 <= v < n):
            raise ParseError(lineno, f"vertex {v} out of range for n={n}")
        if pairs[v] is not None:
            raise ParseError(lineno, f"duplicate intervals for vertex {v}")
        vals = [_rational(t, lineno) for t in tokens[1:]]
        try:
            pairs[v] = (Interval(vals[0], vals[1]), Interval(vals[2], vals[3]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return IntervalRep(pairs)


def _chunked_int_fields(text: str, kind: str, width: int):
    """``(n, fields)``: the header's n and the records' integers in file
    order, the chunks of :func:`_int_chunks` joined, when every chunk is
    clean; else None, and the caller walks the lines."""
    read = _int_chunks(text, kind, width)
    if read is None:
        return None
    n, chunks = read
    fields: list[int] = []
    for chunk in chunks:
        if chunk is None:
            return None
        fields += chunk
    return n, fields


def pairs_parse_interval_rep(text: str) -> IntervalRep:
    clean = _chunked_int_fields(text, "intervals", 5)
    if clean is not None:
        n, fields = clean
        ids, ls, rs, lt, rt = (fields[i::5] for i in range(5))
        if (len(ids) == n and ids == list(range(n))
                and all(map(le, ls, rs)) and all(map(le, lt, rt))):
            return IntervalRep.from_columns(ls, rs, lt, rt)
    rows = list(_lines(text))
    lineno, header = _header(rows, "intervals", "intervals <n>")
    n, = _counts(header[1:], lineno, len(rows) - 1)
    pairs: list = [None] * n
    for lineno, tokens in rows[1:]:
        if len(tokens) != 5:
            raise ParseError(lineno, "expected '<v> <lS> <rS> <lT> <rT>'")
        v = _int(tokens[0], lineno)
        if not (0 <= v < n):
            raise ParseError(lineno, f"vertex {v} out of range for n={n}")
        if pairs[v] is not None:
            raise ParseError(lineno, f"duplicate intervals for vertex {v}")
        vals = [_rational(t, lineno) for t in tokens[1:]]
        try:
            pairs[v] = (Interval(vals[0], vals[1]), Interval(vals[2], vals[3]))
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return IntervalRep(pairs)
