"""Byte-for-byte CLI output on a fixed corpus of small instances.

Every case runs ``cli.main`` in-process and compares stdout with the file
``golden/expected/<name>.out``, recorded once and never edited by hand.
An argument ``@file`` names ``golden/inputs/file``.  The inputs include
tied endpoints (``tied.irep`` is ``gen reflexive-interval --n 40 --seed 3
--grid 20 --max-len 6``; ``tied.bg`` is a tied ``gen interval-bigraph``),
so the tie rules of the normalizers are part of what is compared.
``distinct.bg`` has distinct rational endpoints only, ``frac.irep``
has tied ``p/q`` endpoints, and so has ``adjusted-tied.irep``, whose S and T
share their left endpoint at every vertex.  ``unlocated.dg`` is the realized digraph of
``gen reflexive-interval --n 50 --seed 1``, and ``unlocated.ord`` its
extracted ordering with the first and last positions swapped: a failing
ordering above the witness-search cap.  ``pp-loops.dg`` is point-point
with loops, an isolated vertex and right copies without in-neighbours,
whose ids come last; ``late-witness.dg`` has its first incomplete
splitting-bigraph component start at vertex 0 but reach its witness
through vertex 5.  ``k33.dg`` has arcs from each of 0, 1, 2 to each of
3, 4, 5: its underlying graph is K_{3,3}.
"""

from pathlib import Path

import pytest

from intdigraph.cli import main

GOLDEN = Path(__file__).parent / "golden"

# (name, exit code, arguments)
CASES = [
    ("kernel-tied", 0, "kernel @tied.irep"),
    ("kernel-two", 0, "kernel @two.irep"),
    ("absorbing-tied", 0, "absorbing @tied.irep"),
    ("absorbing-two", 0, "absorbing @two.irep"),
    ("dominating-tied", 0, "dominating @tied.irep"),
    ("dominating-two", 0, "dominating @two.irep"),
    ("absorbing-frac", 0, "absorbing @frac.irep"),
    ("dominating-frac", 0, "dominating @frac.irep"),
    ("min-kernel-irep", 0, "min-kernel @tied.irep"),
    ("max-kernel-irep", 0, "max-kernel @tied.irep"),
    ("min-kernel-irep-weights", 0, "min-kernel @tied.irep --weights @tied.w"),
    ("min-kernel-dg-weights", 0, "min-kernel @tied.dg @tied.ord --weights @tied.w"),
    ("max-kernel-dg-weights", 0, "max-kernel @tied.dg @tied.ord --weights @tied.w"),
    ("min-kernel-adjusted", 0, "min-kernel @adjusted.irep --adjusted"),
    ("max-kernel-adjusted", 0, "max-kernel @adjusted.irep --adjusted"),
    ("min-kernel-adjusted-star", 0, "min-kernel @star.irep --adjusted"),
    ("min-kernel-adjusted-tied", 0, "min-kernel @adjusted-tied.irep --adjusted"),
    ("max-kernel-adjusted-tied", 0, "max-kernel @adjusted-tied.irep --adjusted"),
    ("min-kernel-adjusted-not-adjusted", 1, "min-kernel @tied.irep --adjusted"),
    ("min-kernel-adjusted-weights", 1,
     "min-kernel @adjusted.irep --adjusted --weights @tied.w"),
    ("min-kernel-none", 2, "min-kernel @nk.dg @nk.ord"),
    ("min-kernel-not-duf", 1, "min-kernel @umb.dg @umb.ord"),
    ("max-kernel-none", 2, "max-kernel @nk.dg @nk.ord"),
    ("mis", 0, "mis @tied.dg @tied.ord"),
    ("mis-weights", 0, "mis @tied.dg @tied.ord --weights @tied.w"),
    ("mis-irep", 0, "mis @tied.irep"),
    ("mis-irep-weights", 0, "mis @tied.irep --weights @tied.w"),
    ("red-blue-tied", 0, "red-blue @tied.bg"),
    ("red-blue-isolated", 2, "red-blue @isolated.bg"),
    ("red-blue-distinct", 0, "red-blue @distinct.bg"),
    ("recognize-pp-yes", 0, "recognize-pp @tri.dg"),
    ("recognize-pp-no", 2, "recognize-pp @aw.dg"),
    ("recognize-pp-loops", 0, "recognize-pp @pp-loops.dg"),
    ("recognize-pp-late-witness", 2, "recognize-pp @late-witness.dg"),
    ("check-duf-valid", 0, "check-ordering @tied.dg @tied.ord --kind duf"),
    ("check-duf-violation", 2, "check-ordering @umb.dg @umb.ord --kind duf"),
    ("check-reflexive-valid", 0, "check-ordering @tied.dg @tied.ord --kind reflexive"),
    ("check-reflexive-violation", 2, "check-ordering @swap.dg @swap.ord --kind reflexive"),
    ("check-reflexive-unlocated", 2,
     "check-ordering @unlocated.dg @unlocated.ord --kind reflexive"),
    ("check-cocomp-valid", 0, "check-ordering @tied.dg @tied.ord --kind cocomp"),
    ("check-cocomp-violation", 2, "check-ordering @umb.dg @umb.ord --kind cocomp"),
    ("build-rep", 0, "build-rep @swap.dg @path.ord"),
    ("build-rep-json", 0, "build-rep @tied.dg @tied.ord --json"),
    ("build-rep-violation", 1, "build-rep @swap.dg @swap.ord"),
    ("build-rep-unlocated", 1, "build-rep @unlocated.dg @unlocated.ord"),
    ("subdivide", 0, "subdivide @sub.dg --k 2"),
    ("lift-kernel", 0, "lift @sub.map @sub-kernel.set --kind kernel"),
    ("lift-absorbing", 0, "lift @sub.map @sub-absorbing.set --kind absorbing"),
    ("project-kernel", 0, "project @sub.map @host-kernel.set --kind kernel"),
    ("project-absorbing", 0, "project @sub.map @host-absorbing.set --kind absorbing"),
    ("verify-irep-pass", 0, "verify @tied.irep @tied-kernel.set --kind kernel"),
    ("verify-irep-fail", 2, "verify @tied.irep @tied-short.set --kind kernel"),
    ("verify-dg-pass", 0, "verify @tied.dg @tied-kernel.set --kind kernel"),
    ("verify-dg-fail", 2, "verify @tied.dg @tied-short.set --kind dominating"),
    ("oracle-kernel-none", 2, "oracle kernel @nk.dg"),
    ("oracle-kernel-min", 0, "oracle kernel @two.irep --objective min"),
    ("oracle-kernel-max", 0, "oracle kernel @small.irep --objective max"),
    ("oracle-red-blue-tied", 0, "oracle red-blue @tied.bg"),
    ("oracle-absorbing-two", 0, "oracle absorbing @two.irep"),
    ("oracle-independent-two", 0, "oracle independent @two.irep"),
    ("oracle-anti-walk", 0, "oracle anti-walk @aw.dg"),
    ("oracle-anti-walk-none", 2, "oracle anti-walk @tri.dg"),
    ("oracle-k33", 0, "oracle k33 @k33.dg"),
    ("gen-reflexive-tied", 0, "gen reflexive-interval --n 40 --seed 3 --grid 20 --max-len 6"),
    ("gen-bigraph-tied", 0, "gen interval-bigraph --a 12 --b 12 --seed 5 --grid 20 --max-len 5"),
]


def argv(args: str) -> list[str]:
    return [str(GOLDEN / "inputs" / a[1:]) if a.startswith("@") else a
            for a in args.split()]


@pytest.mark.parametrize("name,code,args", CASES, ids=[c[0] for c in CASES])
def test_cli_output_matches_golden(name, code, args, capsys):
    assert main(argv(args)) == code
    expected = (GOLDEN / "expected" / f"{name}.out").read_text()
    assert capsys.readouterr().out == expected
