"""The tooling commands of the CLI: ``subdivide``, ``lift``, ``project``,
``oracle`` and ``gen``.

They build, move and cross-check instances and sets rather than run the
paper's algorithms, so their argument declarations and handlers live here,
outside :mod:`intdigraph.cli`.  ``cli.build_parser`` imports this module
only to build the parser of one of these commands, or the full parser, so
a call of any other command compiles none of this code.
"""

from __future__ import annotations

import json

from .cli import EXIT_NONEXISTENT, EXIT_OK, _load_instance, _load_weights, _outcome, _read


def _serialize_map(sub: SubdivisionMap) -> dict:
    from .fileio import emit_digraph
    return {
        "k": sub.k,
        "origin": emit_digraph(sub.origin),
        "host": emit_digraph(sub.host),
        "paths": {f"{u} {v}": path for (u, v), path in sorted(sub.paths.items())},
    }


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_map(text: str) -> SubdivisionMap:
    """The map as ``subdivide`` writes it; any other shape is a ValueError."""
    from .fileio import parse_digraph
    from .pointpoint import SubdivisionMap
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("a subdivision map is a JSON object")
    raw, k, origin, host = map(data.get, ("paths", "k", "origin", "host"))
    if not (isinstance(raw, dict) and _is_int(k)
            and isinstance(origin, str) and isinstance(host, str)):
        raise ValueError('a subdivision map needs an object "paths", an integer "k" '
                         'and digraph texts "origin" and "host"')
    if k < 1:  # k_subdivision's own check
        raise ValueError(f"subdivision needs k >= 1, got {k}")
    paths = {}
    for key, ids in raw.items():
        if not (isinstance(ids, list) and all(map(_is_int, ids))):
            raise ValueError(f"path {key!r} is not a list of integers")
        try:
            u, v = map(int, key.split())
        except ValueError:
            raise ValueError(f"path key {key!r} is not two vertex ids") from None
        paths[(u, v)] = tuple(ids)
    return SubdivisionMap(origin=parse_digraph(origin), host=parse_digraph(host),
                          k=k, paths=paths)


def _subdivide_args(p):
    p.add_argument("digraph")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_subdivide)


def _cmd_subdivide(args):
    from .fileio import parse_digraph
    from .pointpoint import k_subdivision
    sub = k_subdivision(parse_digraph(_read(args.digraph)), args.k)
    return {"status": "ok", "map": _serialize_map(sub)}, EXIT_OK


def _lift_project_args(p):
    p.add_argument("map", help="JSON map emitted by 'subdivide'")
    p.add_argument("set", help="file of space-separated vertex ids")
    p.add_argument("--kind", choices=("kernel", "absorbing"), default="kernel")
    p.set_defaults(func=_cmd_lift_project)


def _cmd_lift_project(args):
    """``lift`` or ``project``, by ``lift_set`` or ``project_set``."""
    from . import pointpoint
    from .fileio import parse_vertex_set
    move = pointpoint.lift_set if args.command == "lift" else pointpoint.project_set
    sub = _parse_map(_read(args.map))
    moved = move(sub, parse_vertex_set(_read(args.set)), args.kind)
    return {"status": "ok", "set": moved, "size": len(moved)}, EXIT_OK


def _oracle_args(p):
    p.add_argument("problem", choices=("kernel", "absorbing", "independent",
                                       "red-blue", "k33", "ordering-search",
                                       "anti-walk"))
    p.add_argument("instance", help="digraph or intervals file; a bigraph file for red-blue")
    p.add_argument("--objective", choices=("exists", "min", "max"))
    p.add_argument("--kind", choices=("duf", "reflexive"))
    p.add_argument("--weights")
    p.add_argument("--budget-n", type=int, dest="budget_n")
    p.set_defaults(func=_cmd_oracle)


# option -> the problems that read it; every problem reads --budget-n
_ORACLE_READS = {"weights": ("kernel", "independent"), "objective": ("kernel",),
                 "kind": ("ordering-search",)}


def _cmd_oracle(args):
    from . import oracle
    from .fileio import parse_bigraph_rep
    from .graphs import Digraph, underlying_undirected
    for option, problems in _ORACLE_READS.items():
        if getattr(args, option) is not None and args.problem not in problems:
            raise ValueError(f"the {args.problem} oracle does not take {option}")
    b = args.budget_n
    if b is not None and b < 0:
        raise ValueError(f"--budget-n must be non-negative, got {b}")
    budget = (oracle.DEFAULT_BUDGET if b is None
              else oracle.OracleBudget(subset_n=b, perm_n=b, k33_n=b))
    if args.problem == "red-blue":
        rep = parse_bigraph_rep(_read(args.instance))
        return _outcome(oracle.brute_red_blue(rep, budget=budget), "no-dominating-set")
    g = _load_instance(args.instance)
    if not isinstance(g, Digraph):
        from .intervals import realize_digraph
        g = realize_digraph(g)
    if args.problem == "kernel":
        objective = args.objective or "exists"
        cert = oracle.brute_kernel(g, objective, _load_weights(args), budget=budget)
        return _outcome(cert, "no-kernel")
    if args.problem == "absorbing":
        return _outcome(oracle.brute_min_absorbing(g, budget=budget))
    if args.problem == "independent":
        return _outcome(oracle.brute_max_independent(g, _load_weights(args), budget=budget))
    if args.problem == "k33":
        witness = oracle.find_induced_k33(underlying_undirected(g), budget=budget)
        if witness is None:
            return {"status": "none"}, EXIT_NONEXISTENT
        return {"status": "ok", "parts": witness}, EXIT_OK
    if args.problem == "ordering-search":
        kind = args.kind or "duf"
        if kind == "reflexive":
            kind = "reflexive-interval"
        found = oracle.brute_ordering_search(g, kind, budget=budget)
        if found is None:
            return {"status": "no-ordering", "kind": kind}, EXIT_NONEXISTENT
        return {"status": "ok", "kind": kind, "ordering": found.perm}, EXIT_OK
    witness = oracle.brute_anti_directed_walk(g, budget=budget)
    if witness is None:
        return {"status": "none"}, EXIT_NONEXISTENT
    return {"status": "ok", "witness": witness._asdict()}, EXIT_OK


def _gen_args(p):
    p.add_argument("gen_kind", metavar="kind",
                   choices=("reflexive-interval", "interval-bigraph",
                            "random-digraph", "subdivided"))
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--a", type=int, default=4)
    p.add_argument("--b", type=int, default=4)
    p.add_argument("--p", type=float, default=0.3)
    p.add_argument("--loop-p", type=float, default=0.0, dest="loop_p")
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--grid", type=int)
    p.add_argument("--max-len", type=int, dest="max_len")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_gen)


def _cmd_gen(args):
    from . import generators
    from .fileio import emit_bigraph_rep, emit_digraph, emit_interval_rep
    seed = args.seed
    if args.gen_kind == "reflexive-interval":
        instance = emit_interval_rep(generators.gen_reflexive_interval(
            args.n, seed, grid=args.grid, max_len=args.max_len))
    elif args.gen_kind == "interval-bigraph":
        instance = emit_bigraph_rep(generators.gen_interval_bigraph(
            args.a, args.b, seed, grid=args.grid, max_len=args.max_len))
    elif args.gen_kind == "random-digraph":
        instance = emit_digraph(generators.gen_random_digraph(
            args.n, args.p, args.loop_p, seed))
    else:
        sub = generators.gen_subdivided(args.n, args.p, args.k, seed)
        instance = emit_digraph(sub.host)
    if args.json:
        return {"status": "ok", "instance": instance}, EXIT_OK
    return instance, EXIT_OK


# command -> the function declaring its arguments (``cli.COMMANDS`` holds
# the help lines)
ARGS = {"subdivide": _subdivide_args, "lift": _lift_project_args,
        "project": _lift_project_args, "oracle": _oracle_args, "gen": _gen_args}
