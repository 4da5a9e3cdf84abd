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
the same result.  The library's reader scans the body as one JSON array
and declines, beyond those texts, only texts with a token that ``int``
reads and JSON does not (``test_int_fields.py``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, islice

from intdigraph.errors import ParseError
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
