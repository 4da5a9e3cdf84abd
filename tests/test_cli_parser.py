"""The argument parser's texts and the parsers a call builds.

``golden/parser.json`` holds, for each command line of ``CASES``, the
stdout, stderr and exit code of the ``intdigraph`` script, recorded once
with ``COLUMNS=80`` (argparse wraps its texts to the terminal width) and
never edited by hand: the top-level help and errors, each command's help
and its error with no arguments, and errors that print the top-level
usage line from a call that names a command.  ``main`` runs in-process
here with the same width.
"""

import argparse
import json
from pathlib import Path

import pytest

from intdigraph.cli import build_parser, main

PARSER_GOLDEN = Path(__file__).parent / "golden" / "parser.json"
# the commands in ``--help`` order
NAMES = ("kernel", "absorbing", "dominating", "min-kernel", "max-kernel", "mis",
         "red-blue", "recognize-pp", "check-ordering", "build-rep", "subdivide",
         "lift", "project", "oracle", "verify", "gen")
CASES = (["", "--help", "bogus", "-h kernel", "kernel a b", "kernel a --bogus",
          "check-ordering a b --kind nope", "gen --n x", "mis a --weights"]
         + [f"{name} --help" for name in NAMES] + list(NAMES))


def run_parser(capsys, args: str):
    """The exit code, stdout and stderr of ``main`` on ``args``, which end
    in the parser's exit here: every case is a help text or a usage error."""
    with pytest.raises(SystemExit) as exit_:
        main(args.split())
    out, err = capsys.readouterr()
    return exit_.value.code or 0, out, err


def test_every_case_is_recorded():
    assert [case["args"] for case in json.loads(PARSER_GOLDEN.read_text())] == CASES


@pytest.mark.parametrize("case", json.loads(PARSER_GOLDEN.read_text()),
                         ids=lambda case: case["args"] or "(none)")
def test_parser_texts_match_golden(case, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert run_parser(capsys, case["args"]) == (case["code"], case["stdout"],
                                                case["stderr"])


def test_full_parser_declares_every_command():
    parser = build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(commands.choices) == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_a_call_naming_a_command_builds_two_parsers(name, capsys, made_parsers):
    """The top-level parser and the command's own, whatever the command."""
    assert run_parser(capsys, f"{name} --help")[0] == 0
    assert len(made_parsers) == 2


@pytest.mark.parametrize("args", ["", "--help", "bogus"])
def test_a_call_naming_no_command_builds_every_parser(args, capsys, made_parsers):
    run_parser(capsys, args)
    assert len(made_parsers) == 1 + len(NAMES)
