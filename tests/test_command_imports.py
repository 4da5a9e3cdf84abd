"""Each CLI command loads only the package modules it runs.

Each case runs one golden case in a fresh interpreter, as the
``intdigraph`` script runs ``main``, and compares its stdout with the
recorded output byte for byte, its exit code, and the ``intdigraph``
modules it loaded with the table below.  A function-level import left
out shows as a traceback and exit code 1 (a ``NameError`` is not among
the errors the CLI reports), and a module-level one put back as an extra
module.
"""

import os
import subprocess
import sys

import pytest

from test_golden import CASES, GOLDEN, argv
from test_traced_names import CLI_START_UP, ROOT

# Loaded by every command: the start-up modules and the file reader.
EVERY = {m.removeprefix("intdigraph.") for m in CLI_START_UP} | {"fileio"}
SWEEP = {"intervals", "domination"}
# a digraph plus an ordering: no interval code unless a representation is built
DUF = {"ordering"}
DUF_DP = DUF | {"kernels"}
ORDERED = DUF | {"intervals"}
# golden case -> the modules its command loads besides EVERY
LOADS = {
    "kernel-tied": {"intervals", "kernels"},
    "min-kernel-irep": ORDERED | {"kernels"},
    "min-kernel-dg-weights": DUF_DP,
    "max-kernel-dg-weights": DUF_DP,
    "absorbing-tied": SWEEP,
    "dominating-tied": SWEEP,
    "red-blue-tied": SWEEP,
    "mis": DUF,
    "mis-weights": DUF,
    "mis-irep": ORDERED,
    "mis-irep-weights": ORDERED,
    "check-duf-valid": DUF,
    "check-cocomp-valid": DUF,
    "check-reflexive-violation": ORDERED,
    "build-rep": ORDERED,
    "recognize-pp-no": {"pointpoint"},
    "subdivide": {"tooling", "pointpoint"},
    "lift-kernel": {"tooling", "pointpoint"},
    "project-absorbing": {"tooling", "pointpoint"},
    "verify-irep-pass": {"intervals"},
    "verify-dg-fail": set(),
    "oracle-anti-walk": {"tooling", "oracle", "ordering", "pointpoint"},
    "oracle-red-blue-tied": {"tooling", "oracle", "ordering", "pointpoint", "intervals",
                             "domination"},
    "gen-bigraph-tied": {"tooling", "generators", "intervals", "domination", "pointpoint"},
}
RUN_MAIN = ("import sys\n"
            "from intdigraph.cli import main\n"
            "code = main()\n"
            "print(*sorted(sys.modules), file=sys.stderr)\n"
            "sys.exit(code)")
CODES = {name: (code, args) for name, code, args in CASES}


def test_every_subcommand_has_a_case():
    commands = {CODES[name][1].split()[0] for name in LOADS}
    assert commands == {args.split()[0] for _, _, args in CASES}


@pytest.mark.parametrize("name", LOADS)
def test_command_loads_only_its_modules(name):
    code, args = CODES[name]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, "-c", RUN_MAIN, *argv(args)],
                          capture_output=True, env=env)
    assert done.stdout == (GOLDEN / "expected" / f"{name}.out").read_bytes(), done.stderr
    assert done.returncode == code
    loaded = {m.removeprefix("intdigraph.")
              for m in done.stderr.decode().split() if m.split(".")[0] == "intdigraph"}
    assert loaded == EVERY | LOADS[name]
