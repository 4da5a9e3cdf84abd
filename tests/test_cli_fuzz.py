"""Hostile input at the CLI: any small text given to any subcommand's file
arguments ends in exit 0, 1 or 2 with one JSON object on stdout, never a
traceback.

Each example runs ``cli.main`` in-process on files rewritten in one
directory.  A file argument mostly holds a text of its kind: records that
fit a header count of at most 99, id lists that fit that count, or the map
``subdivide`` writes, whole or damaged.  Otherwise it holds any text:
other records, integer lists, other JSON or raw characters.  So every
reader, and the solver behind it, is hit."""

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from intdigraph import Digraph, fileio, k_subdivision
from intdigraph.cli import _serialize_map, main

HEADERS = ("digraph", "intervals", "bigraph", "", "graph")
ODD = st.sampled_from(["A", "B", "1/2", "3/0", "7.5", "-", "x", "99", "-1"])
SIZES = st.integers(0, 6) | st.integers(-2, 99)
RAW = "0123456789 -/\nABdgrphinvls{}[]\":,"


def _coords(rng, at=None):
    """A closed interval on a small grid, through ``at`` when given."""
    if at is None:
        lo = rng.randint(0, 6)
        return [lo, lo + rng.randint(0, 3)]
    return [at - rng.randint(0, 2), at + rng.randint(0, 2)]


@st.composite
def record_texts(draw, kinds=HEADERS[:3]):
    """A file of one of ``kinds`` with a count in -2..99 and seeded random
    records that fit it, intervals mostly reflexive; at times with one odd
    token, or with any header and any tokens."""
    kind = draw(st.sampled_from(kinds))
    counts = [draw(SIZES) for _ in range(2 if kind == "bigraph" else 1)]
    n = counts[0]
    rng = random.Random(draw(st.integers(0, 2**32)))
    if kind == "digraph":
        rows = [[rng.randrange(n), rng.randrange(n)] if n > 0 and rng.random() < 0.95
                else [rng.randint(-1, max(n, 1)), rng.randint(-1, max(n, 1))]
                for _ in range(rng.randint(0, 3 * max(n, 1)))]
    elif kind == "intervals":
        reflexive = draw(st.integers(0, 3)) < 3
        rows = []
        for v in range(n):
            s = _coords(rng)
            rows.append([v, *s, *_coords(rng, s[0] if reflexive else None)])
    else:
        rows = ([["A", i, *_coords(rng)] for i in range(n)]
                + [["B", j, *_coords(rng)] for j in range(counts[1])])
    rows = [list(map(str, row)) for row in [[kind, *counts], *rows]]
    if draw(st.integers(0, 3)) == 3:
        row = rng.choice(rows)
        row[rng.randrange(len(row))] = draw(ODD)
    if draw(st.integers(0, 4)) == 4:
        tokens = st.integers(-2, 12).map(str) | ODD
        rows = [[draw(st.sampled_from(HEADERS)), *map(str, counts)]] + draw(
            st.lists(st.lists(tokens, max_size=6), max_size=8))
    return "\n".join(map(" ".join, rows)) + "\n"


INT_LISTS = st.integers(0, 6).flatmap(lambda n: st.permutations(range(n))) | st.lists(
    st.integers(-2, 12), max_size=8)


def _words(xs):
    return " ".join(map(str, xs))
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 9) | st.text(RAW, max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(RAW, max_size=4),
                                                                inner, max_size=3),
    max_leaves=8)


@st.composite
def map_texts(draw):
    """The map ``subdivide`` writes for a small loopless digraph, as it is,
    with a field dropped or given a value of another shape, or replaced
    whole by other JSON."""
    n = draw(st.integers(0, 4))
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v and draw(st.booleans())]
    data = _serialize_map(k_subdivision(Digraph(n, arcs), draw(st.sampled_from([1, 2, 4]))))
    action = draw(st.sampled_from(["keep", "drop", "replace", "replace", "other"]))
    key = draw(st.sampled_from(sorted(data)))
    if action == "drop":
        del data[key]
    elif action == "replace":
        data[key] = draw(st.dictionaries(st.sampled_from(["0 1", "1 0", "x", "0 1 2"]),
                                         st.lists(st.integers(-1, 9), max_size=4)
                                         | JSON_VALUES, max_size=2)
                         | record_texts() | JSON_VALUES)
    elif action == "other":
        data = draw(JSON_VALUES)
    return json.dumps(data)


def id_lists(n):
    """An ordering, a weight list or a set of ``n`` vertices, or any list."""
    fits = (st.permutations(range(n)) | st.lists(st.integers(0, 5), min_size=n, max_size=n)
            | st.sets(st.integers(0, n - 1), max_size=n).map(sorted)) if n else st.just([])
    return (fits | INT_LISTS).map(_words)


def texts(kind, n):
    """Mostly a text of the kind a file argument expects, else any text;
    id lists mostly fit ``n``, the count in the first file's header."""
    right = {"intervals": record_texts(("intervals",)), "digraph": record_texts(("digraph",)),
             "bigraph": record_texts(("bigraph",)),
             "instance": record_texts(("digraph", "intervals")),
             "ids": id_lists(n), "map": map_texts()}[kind]
    wrong = st.one_of(record_texts(), INT_LISTS.map(_words), map_texts(),
                      JSON_VALUES.map(json.dumps), st.text(RAW, max_size=30))
    return st.integers(0, 3).flatmap(lambda i: wrong if i == 3 else right)


def header_count(text):
    """The first count of a ``<kind> <n>`` header in 0..99, else 0."""
    words = text.split(maxsplit=2)
    return int(words[1]) if words[1:] and words[1].isdigit() and int(words[1]) < 100 else 0


# One command line per subcommand form: "a|b" is a choice, "#" a number in
# -1..6, "##" one in -1..99, "@kind" a file holding a drawn text.
FORMS = (
    "kernel|absorbing|dominating @intervals", "red-blue @bigraph", "recognize-pp @digraph",
    "min-kernel|max-kernel @intervals", "min-kernel|max-kernel @intervals --adjusted",
    "min-kernel|max-kernel @intervals --weights @ids",
    "min-kernel|max-kernel @digraph @ids",
    "min-kernel|max-kernel @digraph @ids --weights @ids",
    "mis @digraph @ids", "mis @digraph @ids --weights @ids",
    "check-ordering @digraph @ids --kind duf|reflexive|cocomp",
    "build-rep @digraph @ids --json", "subdivide @digraph --k #",
    "lift @map @ids --kind kernel|absorbing", "project @map @ids --kind kernel|absorbing",
    "verify @instance @ids --kind independent|absorbing|dominating|kernel|solution",
    "oracle kernel|absorbing|independent|k33|anti-walk @instance --budget-n #",
    "oracle red-blue @bigraph --budget-n #",
    "oracle kernel @instance --objective min --budget-n #",
    "oracle independent @instance --weights @ids --budget-n #",
    "oracle ordering-search @instance --kind duf|reflexive --budget-n #",
    "gen reflexive-interval|interval-bigraph|random-digraph|subdivided --n ## --a # --b #"
    " --grid # --max-len # --p 0|0.3|1.5 --json",
)


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("cli-fuzz")


def _draw_argv(folder, form, data):
    """The command line of ``form``, its files written to ``folder``."""
    argv, n = [], None
    for i, arg in enumerate(form.split()):
        if "|" in arg:
            arg = data.draw(st.sampled_from(arg.split("|")))
        elif arg in ("#", "##"):
            arg = str(data.draw(st.integers(-1, 6 if arg == "#" else 99)))
        elif arg.startswith("@"):
            text = data.draw(texts(arg[1:], n), label=arg)
            n = header_count(text) if n is None else n
            path = folder / f"f{i}"
            path.write_text(text)
            arg = str(path)
        argv.append(arg)
    return argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(FORMS), st.data())
def test_any_text_ends_in_a_json_answer(folder, form, data):
    argv = _draw_argv(folder, form, data)
    code, out = _run(argv)
    assert code in (0, 1, 2), argv
    payload = json.loads(out)
    assert isinstance(payload, dict) and "status" in payload, argv


# The forms whose files go through the digraph or intervals reader.
PARSE_FORMS = tuple(form for form in FORMS
                    if any(f"@{kind}" in form for kind in ("digraph", "intervals", "instance")))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PARSE_FORMS), st.sampled_from([1, 7]), st.data())
def test_the_chunk_size_changes_no_answer(folder, form, chunk, data):
    """With the digraph and intervals bodies read one line (1) or a few
    characters (7) per chunk, every call answers byte for byte as with the
    default chunk, a JSON answer with exit 0, 1 or 2."""
    argv = _draw_argv(folder, form, data)
    want = _run(argv)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fileio, "_CHUNK", chunk)
        assert _run(argv) == want, argv
    assert want[0] in (0, 1, 2) and "status" in json.loads(want[1]), argv
