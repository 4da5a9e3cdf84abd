"""Workloads: seeded instance files, the CLI calls of one pass, references.

Every workload runs the same eleven CLI calls over four instance
families.  What differs is the size of each family: a workload makes the
family it stresses large and keeps the others small, so that every
command (and every layer) is timed on every workload while the stressed
layers dominate its wall time.

* ``sweep``: ``gen_reflexive_interval(n, grid=4n, max_len=6)``, the
  acceptance-criterion-8 family, as an ``.irep`` file.
* ``dp``: an adjusted representation (``lS = lT`` at every vertex) on the
  same grid and lengths, written as an ``.irep`` file and as its realized
  digraph + DUF ordering + weights.  Adjusted inputs admit near-linear
  references for every optimum (see :mod:`gate`), so the quadratic DPs are
  checked against code that shares nothing with them.
* ``dense``: ``gen_reflexive_interval(n, grid=4n, max_len=200)``, about
  50 arcs per vertex, as ``.irep`` + a kernel set and as digraph + ordering.
* ``sub``: ``gen_subdivided(n, p=0.5, k=2)``, a point-point digraph.

Three more calls, run once per run and untimed, must be rejected: both
ordering checks on the path 0 -> 1 -> 2 ordered ``0 2 1`` (the valid
``0 1 2`` with its last two positions swapped, which puts 2 under the
umbrella of arc 0 -> 1), and ``verify`` of the dense kernel without its
first vertex, which that vertex no longer absorbs.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

from intdigraph.fileio import (emit_digraph, emit_interval_rep, emit_ordering)
from intdigraph.generators import gen_reflexive_interval, gen_subdivided
from intdigraph.graphs import Digraph
from intdigraph.intervals import (Interval, IntervalRep, extract_duf_ordering,
                                  normalize, realize_digraph, set_is_absorbing,
                                  set_is_independent)
from intdigraph.kernels import kernel_linear
from intdigraph.ordering import Ordering

import gate

# Family sizes per workload; "sub" is the vertex count before subdivision.
SIZES = {
    "reflexive-sweep": {"sweep": 20_000, "dp": 150, "dense": 300, "sub": 20},
    "ordered-dp": {"sweep": 1_000, "dp": 3_000, "dense": 300, "sub": 20},
    "dense-graph": {"sweep": 1_000, "dp": 150, "dense": 3_000, "sub": 160},
}
SMOKE_SIZES = {"sweep": 60, "dp": 40, "dense": 40, "sub": 6}

SWEEP_MAX_LEN = 6
DENSE_MAX_LEN = 200
SUB_P, SUB_K = 0.5, 2
MAX_WEIGHT = 9

# (name, CLI arguments).  Arguments with a dot are instance files, resolved
# inside the work directory; no option value has one.
CALLS = (
    ("kernel", ("kernel", "sweep.irep")),
    ("absorbing", ("absorbing", "sweep.irep")),
    ("dominating", ("dominating", "sweep.irep")),
    ("min_kernel", ("min-kernel", "dp.dg", "dp.ord")),
    ("max_kernel", ("max-kernel", "dp.dg", "dp.ord", "--weights", "dp.w")),
    ("mis", ("mis", "dp.dg", "dp.ord")),
    ("check_duf", ("check-ordering", "dp.dg", "dp.ord", "--kind", "duf")),
    ("min_kernel_adjusted", ("min-kernel", "dp.irep", "--adjusted")),
    ("verify", ("verify", "dense.irep", "dense.set", "--kind", "kernel")),
    ("check_reflexive", ("check-ordering", "dense.dg", "dense.ord", "--kind", "reflexive")),
    ("recognize_pp", ("recognize-pp", "sub.dg")),
)
COMMANDS = tuple(name for name, _ in CALLS)
REJECT_CALLS = (
    ("check_duf_rejects", ("check-ordering", "swap.dg", "swap.ord", "--kind", "duf")),
    ("check_reflexive_rejects",
     ("check-ordering", "swap.dg", "swap.ord", "--kind", "reflexive")),
    ("verify_rejects", ("verify", "dense.irep", "dense_short.set", "--kind", "kernel")),
)
SWAP_PATH = Digraph(3, [(0, 1), (1, 2)], loops=range(3))
SWAP_ORDER = Ordering((0, 2, 1))


@dataclass
class Instances:
    """The files of one set-up, the answer references and the manifest."""

    workdir: Path
    refs: gate.Refs
    manifest: list = field(default_factory=list)

    def argv(self, args) -> list[str]:
        return [str(self.workdir / a) if "." in a else a for a in args]

    def in_bytes(self, args) -> int:
        return sum((self.workdir / a).stat().st_size for a in args if "." in a)


def gen_adjusted(n: int, seed: int, grid: int, max_len: int) -> IntervalRep:
    """n random vertices whose S and T share their left endpoint."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(n):
        lo = rng.randint(0, grid)
        pairs.append((Interval(lo, lo + rng.randint(0, max_len)),
                      Interval(lo, lo + rng.randint(0, max_len))))
    return IntervalRep(pairs)


def _write(inst: Instances, name: str, text: str, family: str, params: dict,
           n: int, m: int) -> None:
    data = text.encode()
    (inst.workdir / name).write_bytes(data)
    inst.manifest.append({"file": name, "family": family, "params": params,
                          "n": n, "m": m, "bytes": len(data),
                          "sha256": hashlib.sha256(data).hexdigest()})


def build(workdir: Path, sizes: dict, seed: int) -> Instances:
    """Generate and write every instance file and compute the answer references."""
    workdir.mkdir(parents=True, exist_ok=True)
    refs = gate.Refs()
    inst = Instances(workdir, refs)

    n = sizes["sweep"]
    params = {"generator": "gen_reflexive_interval", "n": n, "seed": 4 * seed,
              "grid": 4 * n, "max_len": SWEEP_MAX_LEN}
    rep = gen_reflexive_interval(n, 4 * seed, grid=4 * n, max_len=SWEEP_MAX_LEN)
    refs.sweep_graph = realize_digraph(rep)
    refs.min_absorbing = gate.min_cover_size(rep.source, rep.target)
    refs.min_dominating = gate.min_cover_size(rep.target, rep.source)
    _write(inst, "sweep.irep", emit_interval_rep(rep), "sweep", params, n,
           refs.sweep_graph.m)

    n = sizes["dp"]
    params = {"generator": "gen_adjusted", "n": n, "seed": 4 * seed + 1,
              "grid": 4 * n, "max_len": SWEEP_MAX_LEN}
    rep = gen_adjusted(n, 4 * seed + 1, 4 * n, SWEEP_MAX_LEN)
    nrep = normalize(rep)
    g = realize_digraph(nrep)
    rng = random.Random(f"weights-{seed}")
    weights = [rng.randint(1, MAX_WEIGHT) for _ in range(n)]
    refs.dp_rep, refs.dp_weights = rep, weights
    refs.min_kernel = gate.adjusted_kernel_value(rep, [1] * n, "min")
    refs.max_kernel = gate.adjusted_kernel_value(rep, weights, "max")
    refs.mis = gate.adjusted_mis_size(rep)
    _write(inst, "dp.irep", emit_interval_rep(rep), "dp", params, n, g.m)
    _write(inst, "dp.dg", emit_digraph(g), "dp", params, n, g.m)
    _write(inst, "dp.ord", emit_ordering(extract_duf_ordering(nrep)), "dp", params, n, g.m)
    _write(inst, "dp.w", " ".join(map(str, weights)) + "\n", "dp",
           dict(params, weights=f"randint(1, {MAX_WEIGHT}), Random('weights-{seed}')"), n, g.m)

    n = sizes["dense"]
    params = {"generator": "gen_reflexive_interval", "n": n, "seed": 4 * seed + 2,
              "grid": 4 * n, "max_len": DENSE_MAX_LEN}
    rep = gen_reflexive_interval(n, 4 * seed + 2, grid=4 * n, max_len=DENSE_MAX_LEN)
    nrep = normalize(rep)
    g = realize_digraph(nrep)
    kernel = kernel_linear(nrep).vertices
    if not (set_is_independent(rep, kernel) and set_is_absorbing(rep, kernel)):
        raise RuntimeError("set-up produced a dense-family set that is not a kernel")
    refs.dense_kernel = kernel
    _write(inst, "dense.irep", emit_interval_rep(rep), "dense", params, n, g.m)
    _write(inst, "dense.set", " ".join(map(str, kernel)) + "\n", "dense",
           dict(params, content="kernel_linear"), n, g.m)
    _write(inst, "dense_short.set", " ".join(map(str, kernel[1:])) + "\n", "dense",
           dict(params, content="kernel_linear without its first vertex"), n, g.m)
    _write(inst, "dense.dg", emit_digraph(g), "dense", params, n, g.m)
    _write(inst, "dense.ord", emit_ordering(extract_duf_ordering(nrep)), "dense",
           params, n, g.m)

    n = sizes["sub"]
    params = {"generator": "gen_subdivided", "n": n, "seed": 4 * seed + 3,
              "p": SUB_P, "k": SUB_K}
    host: Digraph = gen_subdivided(n, SUB_P, SUB_K, 4 * seed + 3).host
    refs.sub_graph = host
    _write(inst, "sub.dg", emit_digraph(host), "sub", params, host.n, host.m)

    params = {"generator": "fixed", "arcs": "0->1, 1->2, loops"}
    _write(inst, "swap.dg", emit_digraph(SWAP_PATH), "swap", params, 3, SWAP_PATH.m)
    _write(inst, "swap.ord", emit_ordering(SWAP_ORDER), "swap", params, 3, SWAP_PATH.m)
    return inst
