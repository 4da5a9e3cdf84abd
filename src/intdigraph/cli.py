"""Command-line interface.

Every solving subcommand re-verifies its own output and reports
``certificate_checked``; exit codes distinguish a solved instance (0), a
proven negative answer such as no-kernel or an ordering violation (2),
and an error (1).
"""

from __future__ import annotations

import argparse
import gc
import json
import operator
import os
import sys
from itertools import chain, islice
from pathlib import Path

# Each command imports the modules it runs.  ``perfbench/spans.py`` looks
# up each ``TRACED`` module in ``sys.modules`` and no other benchmark import
# loads ``independent``; the in-package trace (ROADMAP item 2) drops this one.
from . import independent
from .errors import ParseError

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NONEXISTENT = 2
OUTPUT_PIECE = 512  # characters; every payload is ASCII
_BATCH = 4096  # scalars per C-encoder call of the layout, bounding its temporaries


def _read(path: str) -> str:
    return Path(path).read_text()


def _outcome(cert, negative: str = "none"):
    """The payload and exit code of a certificate, or of None, a proven
    negative answer reported with status ``negative``."""
    if cert is None:
        return {"status": negative}, EXIT_NONEXISTENT
    payload = {"status": "ok"}
    payload.update(cert.to_json())
    return payload, EXIT_OK


def _load_weights(args):
    """The ``--weights`` file's integers; each solver checks their count."""
    if args.weights is None:
        return None
    from .fileio import parse_weights
    return parse_weights(_read(args.weights))


def _load_rep(path: str):
    """The normalized representation of the intervals file at ``path``.  A
    sweep command imports its solver after it: imported before, ``kernels``
    raised the max RSS of ``kernel`` on 20k vertices from 24.0 to 24.4 MB."""
    from .fileio import parse_interval_rep
    from .intervals import normalize
    return normalize(parse_interval_rep(_read(path)))


def _load_ordered(paths):
    """The digraph and the ordering of ``paths``, told apart by their count,
    not by their headers: a digraph file plus an ordering file, or one
    intervals file, realized and given its extracted ordering.  For the
    latter ``intervals`` is imported before the read, as in
    :func:`_load_rep`: imported after it, it raised the max RSS of
    ``min-kernel --adjusted`` on 3k vertices from 16.91 to 16.96 MB."""
    if len(paths) == 1:
        from .intervals import extract_duf_ordering, realize_digraph
        rep = _load_rep(paths[0])
        return realize_digraph(rep), extract_duf_ordering(rep)
    if len(paths) != 2:
        raise ValueError("expected an intervals file, or a digraph file plus an "
                         f"ordering file; got {len(paths)} files")
    from .fileio import parse_digraph, parse_ordering
    return parse_digraph(_read(paths[0])), parse_ordering(_read(paths[1]))


def _sweep_args(p):
    p.add_argument("rep")
    p.set_defaults(func=_cmd_sweep)


def _cmd_sweep(args):
    """``kernel``, ``absorbing`` or ``dominating`` on an intervals file."""
    rep = _load_rep(args.rep)
    # the solver is imported after the parse: see _load_rep
    if args.command == "kernel":
        from .kernels import kernel_linear as solve
    elif args.command == "absorbing":
        from .domination import min_absorbing_reflexive as solve
    else:
        from .domination import min_dominating_reflexive as solve
    return _outcome(solve(rep))


def _optimal_kernel_args(p):
    p.add_argument("inputs", nargs="+",
                   help="an intervals file, or a digraph file plus an ordering file")
    p.add_argument("--adjusted", action="store_true",
                   help="require matching left endpoints (adjusted representation); "
                        "takes one intervals file and no weights")
    p.add_argument("--weights", help="file of per-vertex integer weights")
    p.set_defaults(func=_cmd_optimal_kernel)


def _cmd_optimal_kernel(args):
    """``min-kernel`` or ``max-kernel``, the objective read off the command."""
    from .kernels import optimal_kernel_adjusted, optimal_kernel_duf
    objective = args.command.removesuffix("-kernel")
    if not args.adjusted:
        cert = optimal_kernel_duf(*_load_ordered(args.inputs), objective,
                                  _load_weights(args))
    elif args.weights:
        raise ValueError("the adjusted solver does not take weights")
    elif len(args.inputs) != 1:
        raise ValueError("--adjusted takes exactly one intervals file")
    else:
        cert = optimal_kernel_adjusted(_load_rep(args.inputs[0]), objective)
    return _outcome(cert, "no-kernel")


def _mis_args(p):
    p.add_argument("inputs", nargs="+",
                   help="an intervals file, or a digraph file plus an ordering file")
    p.add_argument("--weights", help="file of per-vertex integer weights")
    p.set_defaults(func=_cmd_mis)


def _cmd_mis(args):
    g, ordering = _load_ordered(args.inputs)
    return _outcome(independent.max_independent_duf(g, ordering, _load_weights(args)))


def _red_blue_args(p):
    p.add_argument("bigraph")
    p.set_defaults(func=_cmd_red_blue)


def _cmd_red_blue(args):
    from .domination import red_blue_min_dominating
    from .fileio import parse_bigraph_rep
    rep = parse_bigraph_rep(_read(args.bigraph))
    return _outcome(red_blue_min_dominating(rep), "no-dominating-set")


def _recognize_pp_args(p):
    p.add_argument("digraph")
    p.set_defaults(func=_cmd_recognize_pp)


def _cmd_recognize_pp(args):
    from .fileio import parse_digraph
    from .pointpoint import PointRep, recognize_point_point
    result = recognize_point_point(parse_digraph(_read(args.digraph)))
    if isinstance(result, PointRep):
        return {"status": "point-point",
                "points": {"s": list(result.s_points),
                           "t": list(result.t_points)}}, EXIT_OK
    return {"status": "not-point-point",
            "witness": result._asdict()}, EXIT_NONEXISTENT


def _check_ordering_args(p):
    p.add_argument("digraph")
    p.add_argument("ordering")
    p.add_argument("--kind", choices=("duf", "reflexive", "cocomp"), required=True)
    p.set_defaults(func=_cmd_check_ordering)


def _cmd_check_ordering(args):
    from .graphs import underlying_undirected
    from .ordering import (check_reflexive_interval_ordering,
                           verify_cocomparability_ordering, verify_duf_ordering)
    g, ordering = _load_ordered((args.digraph, args.ordering))
    if args.kind == "duf":
        witness = verify_duf_ordering(g, ordering)
    elif args.kind == "reflexive":
        witness = check_reflexive_interval_ordering(g, ordering)
    else:
        witness = verify_cocomparability_ordering(underlying_undirected(g), ordering)
    if witness is None:
        return {"status": "valid", "kind": args.kind}, EXIT_OK
    witness = {"triple": witness} if args.kind == "cocomp" else witness._asdict()
    return {"status": "violation", "kind": args.kind,
            "witness": witness}, EXIT_NONEXISTENT


def _build_rep_args(p):
    p.add_argument("digraph")
    p.add_argument("ordering")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_build_rep)


def _cmd_build_rep(args):
    from .fileio import emit_interval_rep
    from .ordering import build_representation
    text = emit_interval_rep(build_representation(*_load_ordered((args.digraph, args.ordering))))
    if args.json:
        return {"status": "ok", "instance": text}, EXIT_OK
    return text, EXIT_OK


def _load_instance(path: str):
    """The digraph, or the interval representation, in the file at ``path``."""
    from .fileio import detect_kind, parse_digraph, parse_interval_rep
    text = _read(path)
    kind = detect_kind(text)
    if kind == "digraph":
        return parse_digraph(text)
    if kind == "intervals":
        return parse_interval_rep(text)
    raise ValueError(f"expected a digraph or intervals file, got {kind}")


def _verify_args(p):
    p.add_argument("instance", help="digraph or intervals file")
    p.add_argument("set", help="file of space-separated vertex ids")
    p.add_argument("--kind", required=True,
                   choices=("independent", "absorbing", "dominating", "kernel",
                            "solution"))
    p.set_defaults(func=_cmd_verify)


def _cmd_verify(args):
    from .fileio import parse_vertex_set
    from .graphs import verify_set
    # an intervals file's representation is checked on its ranks, not realized
    g = _load_instance(args.instance)
    s = parse_vertex_set(_read(args.set))
    cert = verify_set(g, s, args.kind)
    payload = {"status": "ok", "mode": args.kind, "set": cert.vertices,
               "checks": dict(cert.checks), "pass": cert.all_checks_pass()}
    return payload, EXIT_OK if cert.all_checks_pass() else EXIT_NONEXISTENT


# command -> (help line, the function declaring its arguments), in ``--help``
# order; None for a tooling command, declared by ``tooling.ARGS``
COMMANDS = {
    "kernel": ("kernel of a reflexive interval representation", _sweep_args),
    "absorbing": ("minimum absorbing set (reflexive rep)", _sweep_args),
    "dominating": ("minimum dominating set (reflexive rep)", _sweep_args),
    "min-kernel": ("minimum kernel (DUF DP)", _optimal_kernel_args),
    "max-kernel": ("maximum kernel (DUF DP)", _optimal_kernel_args),
    "mis": ("maximum independent set (DUF DP)", _mis_args),
    "red-blue": ("minimum A-dominating subset of B", _red_blue_args),
    "recognize-pp": ("point-point recognition with witness", _recognize_pp_args),
    "check-ordering": ("validate an ordering", _check_ordering_args),
    "build-rep": ("interval representation from an ordering", _build_rep_args),
    "subdivide": ("k-subdivision of a loopless digraph", None),
    "lift": ("lift a kernel/absorbing set through a subdivision", None),
    "project": ("project a kernel/absorbing set through a subdivision", None),
    "oracle": ("budgeted brute-force reference solvers", None),
    "verify": ("run the definitional check on a set", _verify_args),
    "gen": ("seeded random instance generators", None),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of every command when it is None.

    A call runs one command, so ``main`` builds that command's parser only,
    and loads ``tooling`` only for a tooling command.  Its one subparser
    carries the metavar of all commands, so a usage line it prints reads as
    the full parser's; the full parser sets none, since argparse would print
    the metavar for ``command`` in its "required" and "invalid choice"
    errors.
    """
    parser = argparse.ArgumentParser(
        prog="intdigraph",
        description="Kernels, domination and independent sets in reflexive "
                    "interval digraphs.")
    if command is None:
        sub = parser.add_subparsers(dest="command", required=True)
        names = COMMANDS
    else:
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
        names = (command,)
    for name in names:
        help_text, declare = COMMANDS[name]
        if declare is None:
            from .tooling import ARGS
            declare = ARGS[name]
        declare(sub.add_parser(name, help=help_text))
    return parser


def _nests(values) -> bool:
    """Whether any of ``values`` is a container, told apart as the JSON
    encoder does, by ``isinstance`` (a NamedTuple is a list)."""
    return any(issubclass(t, (dict, list, tuple)) for t in set(map(type, values)))


def _layout(x, pad: str) -> str:
    r"""``json.dumps(x, indent=2)`` with each line break followed by ``pad``'s
    indent, so ``_layout(x, "\n")`` is exactly ``json.dumps(x, indent=2)``.

    The indenting encoder is pure Python; the C encoder runs when there is
    no indent, and its item separator can carry the line break and indent.
    So a container of scalars is laid out by C calls of at most ``_BATCH``
    items each, and so is a container of arrays of scalars (:func:`_arrays`).
    Any other container is laid out item by item.  Every other value, and
    a dict with a non-``str`` key, is indented whole: each newline of that
    text is a line break.  The pieces are joined once, so the layout peaks
    at about twice its text.
    """
    return "".join(_pieces(x, pad))


def _pieces(x, pad: str):
    """The text of ``_layout(x, pad)``, in pieces."""
    if isinstance(x, dict):
        items = x.values() if all(issubclass(t, str) for t in set(map(type, x))) else ()
    else:
        items = x if isinstance(x, (list, tuple)) else ()
    if not items:
        yield json.dumps(x, indent=2).replace("\n", pad)
        return
    inner = pad + "  "
    brackets = "{}" if isinstance(x, dict) else "[]"
    yield brackets[0] + inner
    if not _nests(items):
        yield from _runs(x, inner)
    else:
        items = list(items)
        keys = ([key + ": " for key in json.dumps(list(x), separators=("\n", ": "))[1:-1]
                 .split("\n")] if isinstance(x, dict) else [""] * len(items))
        if (all(isinstance(v, (list, tuple)) for v in items)
                and not _nests(chain.from_iterable(items))):
            yield from _arrays(keys, items, inner)
        else:
            lead = ""
            for key, v in zip(keys, items):
                yield lead + key
                yield from _pieces(v, inner)
                lead = "," + inner
    yield pad + brackets[1]


def _runs(x, sep: str):
    """The items of ``x``, scalars, encoded as ``json.dumps`` with item
    separator ``"," + sep`` would, less the brackets: a C call per run of
    at most ``_BATCH`` items, keys included for a dict."""
    items, run_of = (iter(x.items()), dict) if isinstance(x, dict) else (iter(x), list)
    lead = ""
    while run := run_of(islice(items, _BATCH)):
        yield lead
        yield json.dumps(run, separators=("," + sep, ": "))[1:-1]
        lead = "," + sep


def _arrays(keys, arrays, inner: str):
    """The items of a container of ``arrays`` of scalars, each after its
    key, laid out at ``inner`` in pieces.  Consecutive arrays of at most
    ``_BATCH`` scalars in all share one C call, cut where one array ends
    and the next begins: no encoded scalar ends in ``]`` and no encoded
    string holds a line break.  A longer array is laid out by :func:`_runs`."""
    sep, comma = inner + "  ", "," + inner
    cuts, size = [0], 0
    for i, v in enumerate(arrays):
        if size + len(v) > _BATCH and i > cuts[-1]:
            cuts.append(i)
            size = 0
        size += len(v)
    cuts.append(len(arrays))
    for lo, hi in zip(cuts, cuts[1:]):
        lead = comma if lo else ""
        if len(arrays[lo]) > _BATCH:  # alone in its batch
            yield lead + keys[lo] + "[" + sep
            yield from _runs(arrays[lo], sep)
            yield inner + "]"
            continue
        text = json.dumps(arrays[lo:hi], separators=("," + sep, ": "))
        laid = ("[" + sep + t + inner + "]" if t else "[]"
                for t in text[2:-2].split("]," + sep + "["))
        yield lead + comma.join(map(operator.add, keys[lo:hi], laid))


def _run(args) -> int:
    """Run the chosen command, print its payload and return the exit code."""
    try:
        payload, code = args.func(args)
    except ParseError as exc:
        payload = json.dumps({"status": "error", "error": str(exc)}) + "\n"
        code = EXIT_ERROR
    except (ValueError, RuntimeError, OSError, KeyError, MemoryError, OverflowError) as exc:
        payload = json.dumps({"status": "error",
                              "error": f"{type(exc).__name__}: {exc}"}) + "\n"
        code = EXIT_ERROR
    if not isinstance(payload, str):
        payload = _layout(payload, "\n") + "\n"
    try:
        # A pipe takes a write of at most PIPE_BUF bytes (512 or more) whole
        # or not at all, so once the reader has gone each piece raises
        # BrokenPipeError; a larger write straight to the raw file (as under
        # ``python -u``) could take a part and drop the rest silently.
        for i in range(0, len(payload), OUTPUT_PIECE):
            sys.stdout.write(payload[i:i + OUTPUT_PIECE])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; send what is still buffered to devnull so
        # the flush at interpreter exit raises nothing.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    return code


def main(argv=None) -> int:
    # A command builds its data in bulk and keeps it to the end, so cyclic GC
    # passes would only re-walk the growing heap; the caller's state is restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        command = argv[0] if argv and argv[0] in COMMANDS else None
        args = build_parser(command).parse_args(argv)
        # The parser is cyclic garbage; with GC off since before it was built,
        # all of it is in the youngest generation, which one cheap pass frees.
        gc.collect(0)
        return _run(args)
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
