"""Plain-text instance files.

Formats (whitespace separated, one record per line):

* digraph:   header ``digraph <n>``, then ``<u> <v>`` per arc; ``u == v``
  encodes a self-loop.
* intervals: header ``intervals <n>``, then ``<v> <lS> <rS> <lT> <rT>``
  with integer or ``p/q`` rational endpoints.
* bigraph:   header ``bigraph <|A|> <|B|>``, then ``A <i> <l> <r>`` or
  ``B <j> <l> <r>`` lines.
* ordering:  a single line of space-separated vertex ids (no header).

Emitters write records in canonical sorted order, so emit(parse(f)) == f
up to whitespace for canonical files.

Clean integer digraph and intervals files, with ``"\\n"`` or CRLF line
ends, are read by one ``json.loads`` per chunk of about ``_CHUNK``
characters of whole lines, which makes no token a string; a digraph is
bucketed and an intervals file split into its four endpoint columns chunk
by chunk, so the file is never one list of all its integers.  Every other
file, and every file with one unclean chunk, takes the line walk, the only
reader of ``p/q`` and the only source of :class:`ParseError`, so errors
keep their lines.
"""

from __future__ import annotations

import json
import re
from operator import le

from .errors import InvalidVertex, ParseError
from .graphs import Digraph


def _lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line:
            yield lineno, line.split()


# Body bytes: the alphabet of signed decimal records stays, each space, tab
# and ``\x1f`` becomes ``,`` and every other byte ``;``, which declines.
_BODY = bytes(c if c in b"0123456789-\n" else 44 if c in b" \t\x1f" else 59
              for c in range(256))


_CHUNK = 1 << 16  # body characters per json.loads, cut at the next line end


def _int_chunks(text: str, kind: str, width: int):
    """``(n, chunks)`` when the first line is ``<kind> <n>``, else None, and
    the caller walks the lines.  ``chunks`` yields the records' integers in
    file order, one list per chunk of whole lines of about ``_CHUNK``
    characters, or None for the first chunk that is not clean, and then
    stops: every line but trailing blank ones must hold ``width`` plain
    integers.

    A chunk is read by one ``json.loads``, so no token becomes a string:
    each run of blanks is made one ``,`` and each line end a ``null``, and
    the record width is one check that ``null`` stands after every
    ``width`` numbers and nowhere else.  Only ASCII text with no line break
    but ``"\\n"`` (each ``"\\r\\n"`` is read as one) and a body of digits,
    ``-`` and blanks is read so; a token JSON rejects (``007``, ``+5``, a
    lone ``-``, more digits than ``int`` takes) makes its chunk unclean."""
    if "\r" in text:  # a lone "\r" left by this makes its chunk unclean
        text = text.replace("\r\n", "\n")
    start = text.find("\n") + 1 or len(text)
    header = text[:start]
    head = header.split()
    if (not text.isascii() or any(map(header.__contains__, "\r\x0b\x0c\x1c\x1d\x1e"))
            or len(head) != 2 or head[0] != kind):
        return None
    try:
        n = int(head[1])
    except ValueError:
        return None
    end = len(text)
    while end > start and text[end - 1] in " \t\x1f\n":  # trailing blank lines
        end -= 1
    return n, _chunks(text, start, end, width + 1)


def _chunks(text: str, pos: int, end: int, step: int):
    """The chunks of :func:`_int_chunks` in ``text[pos:end]``, records of
    ``step - 1`` integers."""
    while pos < end:
        cut = text.find("\n", pos + _CHUNK, end)
        cut = end if cut < 0 else cut
        chunk = text[pos:cut].encode().translate(_BODY).decode()
        pos = cut + 1
        lines = chunk.count("\n") + 1
        chunk = chunk.replace("\n", ",null,")
        while ",," in chunk:  # blank runs, indents and trailing blanks
            chunk = chunk.replace(",,", ",")
        try:
            fields = None if ";" in chunk else json.loads(f"[{chunk.strip(',')},null]")
        except ValueError:
            fields = None
        if (fields is None or len(fields) != lines * step
                or fields[step - 1::step].count(None) != lines):
            yield None
            return
        del fields[step - 1::step]
        yield fields


def _header(rows, kind: str, usage: str):
    """The first row, ``(lineno, tokens)``, if it is a ``kind`` header as
    wide as ``usage``; else a ParseError on its line (line 1 for none)."""
    if not rows or rows[0][1][0] != kind or len(rows[0][1]) != len(usage.split()):
        raise ParseError(rows[0][0] if rows else 1, f"expected '{usage}' header")
    return rows[0]


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
            from fractions import Fraction  # loaded only when a p/q is read
            num, den = token.split("/", 1)
            return Fraction(int(num), int(den))
        return int(token)
    except (ValueError, ZeroDivisionError):
        raise ParseError(lineno, f"expected an integer or p/q rational, got {token!r}") from None


def _bucketed(n: int, chunks, signed: bool) -> Digraph | None:
    """The digraph of the flat arcs in ``chunks``, or None at the first
    chunk that is None or has an end outside ``[0, n)``; only a ``signed``
    text, one with a ``-``, is searched for a negative end.  Each head is
    the one int object of its id, so the out-lists share at most n ints."""
    loops = [False] * n  # first, so an n too large to allocate fails at once
    heads: list[list[int]] = [[] for _ in range(n)]
    ids: list[int] = []  # ids[v] is v, kept up to the largest end read
    for fields in chunks:
        if fields is None:
            return None
        top = max(fields)
        if top >= n or (signed and min(fields) < 0):
            return None
        ids.extend(range(len(ids), top + 1))
        ends = iter(fields)
        for u, v in zip(ends, ends):
            heads[u].append(ids[v])
    return Digraph.from_heads(heads, loops)


def parse_digraph(text: str) -> Digraph:
    read = _int_chunks(text, "digraph", 2)
    if read is not None and read[0] >= 0:
        try:
            g = _bucketed(*read, "-" in text)
        except (MemoryError, OverflowError):
            g = None  # the line walk names the header, after any bad record
        if g is not None:
            return g
    rows = list(_lines(text))
    lineno, header = _header(rows, "digraph", "digraph <n>")
    n = _int(header[1], lineno)
    edges = []
    for lineno, tokens in rows[1:]:
        if len(tokens) != 2:
            raise ParseError(lineno, f"expected '<u> <v>', got {' '.join(tokens)!r}")
        edges.append((_int(tokens[0], lineno), _int(tokens[1], lineno)))
    try:
        return Digraph(n, edges)
    except (MemoryError, OverflowError) as exc:
        raise ParseError(rows[0][0], f"header declares {n} vertices, "
                         f"too many to allocate ({type(exc).__name__})") from None
    except InvalidVertex as exc:
        # A negative n is the header's fault, else the first arc out of range.
        bad = (line for (line, _), (u, v) in zip(rows[1:], edges)
               if not (0 <= u < n and 0 <= v < n))
        raise ParseError(next(bad) if n >= 0 else rows[0][0], str(exc)) from None


def emit_digraph(g: Digraph) -> str:
    lines = [f"digraph {g.n}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    lines.extend(f"{v} {v}" for v in g.loop_vertices())
    return "\n".join(lines) + "\n"


def parse_interval_rep(text: str) -> IntervalRep:
    """The four endpoint columns of an intervals file; the line walk checks
    each interval as :class:`Interval` does but keeps only its endpoints."""
    from .intervals import IntervalRep  # deferred: a digraph file needs none
    read = _int_chunks(text, "intervals", 5)
    if read is not None:
        n, chunks = read
        cols = ls, rs, lt, rt = [], [], [], []
        for fields in chunks:  # ids 0, 1, ... in file order, else the line walk
            if fields is None or fields[::5] != list(range(len(ls), len(ls) + len(fields) // 5)):
                break
            for i, col in enumerate(cols, 1):
                col += fields[i::5]
        else:
            if len(ls) == n and all(map(le, ls, rs)) and all(map(le, lt, rt)):
                return IntervalRep.from_columns(ls, rs, lt, rt)
    rows = list(_lines(text))
    lineno, header = _header(rows, "intervals", "intervals <n>")
    n, = _counts(header[1:], lineno, len(rows) - 1)
    cols = ls, rs, lt, rt = [[None] * n for _ in range(4)]
    for lineno, tokens in rows[1:]:
        if len(tokens) != 5:
            raise ParseError(lineno, "expected '<v> <lS> <rS> <lT> <rT>'")
        v = _int(tokens[0], lineno)
        if not (0 <= v < n):
            raise ParseError(lineno, f"vertex {v} out of range for n={n}")
        if ls[v] is not None:
            raise ParseError(lineno, f"duplicate intervals for vertex {v}")
        ends = [_rational(t, lineno) for t in tokens[1:]]
        for lo, hi in (ends[:2], ends[2:]):
            if lo > hi:  # Interval's check, S first
                raise ParseError(lineno, f"interval [{lo}, {hi}] has lo > hi")
        for col, x in zip(cols, ends):
            col[v] = x
    return IntervalRep.from_columns(ls, rs, lt, rt)


def emit_interval_rep(rep: IntervalRep) -> str:
    lines = [f"intervals {rep.n}"]
    for v, ends in enumerate(zip(rep.ls, rep.rs, rep.lt, rep.rt)):
        lines.append(" ".join(map(str, (v, *ends))))  # a Fraction prints as p/q or p
    return "\n".join(lines) + "\n"


def parse_bigraph_rep(text: str) -> IntervalBigraphRep:
    from .domination import IntervalBigraphRep  # deferred, as in parse_interval_rep
    from .intervals import Interval
    rows = list(_lines(text))
    lineno, header = _header(rows, "bigraph", "bigraph <|A|> <|B|>")
    a_size, b_size = _counts(header[1:], lineno, len(rows) - 1)
    a_ivs: list = [None] * a_size
    b_ivs: list = [None] * b_size
    for lineno, tokens in rows[1:]:
        if len(tokens) != 4 or tokens[0] not in ("A", "B"):
            raise ParseError(lineno, "expected 'A|B <i> <l> <r>'")
        idx = _int(tokens[1], lineno)
        store, size = (a_ivs, a_size) if tokens[0] == "A" else (b_ivs, b_size)
        if not (0 <= idx < size):
            raise ParseError(lineno, f"index {idx} out of range for part {tokens[0]}")
        if store[idx] is not None:
            raise ParseError(lineno, f"duplicate interval for {tokens[0]} {idx}")
        lo, hi = _rational(tokens[2], lineno), _rational(tokens[3], lineno)
        try:
            store[idx] = Interval(lo, hi)
        except ValueError as exc:
            raise ParseError(lineno, str(exc)) from None
    return IntervalBigraphRep(a_ivs, b_ivs)


def emit_bigraph_rep(rep: IntervalBigraphRep) -> str:
    lines = [f"bigraph {rep.a_size} {rep.b_size}"]
    for i, (lo, hi) in enumerate(zip(rep.a_lo, rep.a_hi)):
        lines.append(f"A {i} {lo} {hi}")
    for j, (lo, hi) in enumerate(zip(rep.b_lo, rep.b_hi)):
        lines.append(f"B {j} {lo} {hi}")
    return "\n".join(lines) + "\n"


def parse_ordering(text: str) -> Ordering:
    """The one line of vertex ids; a file with none is the empty ordering."""
    from .ordering import Ordering  # deferred, as in parse_interval_rep
    rows = list(_lines(text))
    if len(rows) > 1:
        raise ParseError(rows[1][0], "ordering files hold a single line of vertex ids")
    lineno, tokens = rows[0] if rows else (1, [])
    perm = tuple(_int(t, lineno) for t in tokens)
    try:
        return Ordering(perm)
    except ValueError as exc:
        raise ParseError(lineno, str(exc)) from None


def emit_ordering(ordering: Ordering) -> str:
    return " ".join(str(v) for v in ordering.perm) + "\n"


def _int_list(text: str) -> list[int]:
    return [_int(t, lineno) for lineno, tokens in _lines(text) for t in tokens]


def parse_weights(text: str) -> list[int]:
    return _int_list(text)


def parse_vertex_set(text: str) -> list[int]:
    return _int_list(text)


def detect_kind(text: str) -> str:
    """One of 'digraph', 'intervals', 'bigraph', 'ordering' by the first
    token, read without splitting the rest of the text.  The pattern is
    compiled on the first call, so a command that never calls this pays
    nothing for it."""
    first = re.match(r"\s*(\S+)", text)
    if first is None:
        raise ParseError(1, "empty instance file")
    kind = first.group(1)
    return kind if kind in ("digraph", "intervals", "bigraph") else "ordering"
