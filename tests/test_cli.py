import ast
import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intdigraph
from intdigraph import (AntiWalkWitness, Digraph, Interval, PointRep, pointpoint,
                        verify_representation)
from intdigraph.cli import main
from intdigraph.fileio import (emit_digraph, emit_interval_rep, emit_ordering,
                               parse_digraph, parse_interval_rep)
from intdigraph.generators import gen_reflexive_interval

from fixtures import (anti_walk_example, directed_triangle,
                      in_star_adjusted, no_kernel_duf,
                      two_vertex_example_rep)
from conftest import VERIFY_MODES


@pytest.fixture()
def files(tmp_path):
    g, ordering = no_kernel_duf()
    paths = {
        "nk.dg": emit_digraph(g),
        "nk.ord": emit_ordering(ordering),
        "tri.dg": emit_digraph(directed_triangle()),
        "aw.dg": emit_digraph(anti_walk_example()),
        "two.irep": emit_interval_rep(two_vertex_example_rep()),
        "star.irep": emit_interval_rep(in_star_adjusted()[1]),
        "ab.dg": emit_digraph(Digraph(2, [(0, 1), (1, 0)])),
        "set0.txt": "0\n",
        "set1.txt": "1\n",
        "bad.irep": "intervals 1\n0 5 1 0 1\n",
        "one.bg": "bigraph 1 1\nA 0 0 1\nB 0 1 2\n",
    }
    out = {}
    for name, text in paths.items():
        p = tmp_path / name
        p.write_text(text)
        out[name] = str(p)
    out["dir"] = tmp_path
    return out


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr().out
    return code, captured


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestSolverCommands:
    def test_min_kernel_reports_no_kernel(self, files, capsys):
        code, payload = run_json(capsys, "min-kernel", files["nk.dg"], files["nk.ord"])
        assert code == 2 and payload == {"status": "no-kernel"}

    def test_kernel_linear(self, files, capsys):
        code, payload = run_json(capsys, "kernel", files["two.irep"])
        assert code == 0
        assert payload["set"] == [1] and payload["size"] == 1
        assert payload["certificate_checked"] is True

    def test_min_kernel_from_rep(self, files, capsys):
        code, payload = run_json(capsys, "min-kernel", files["two.irep"])
        assert code == 0 and payload["set"] == [1] and payload["optimal"] is True

    def test_min_kernel_adjusted(self, files, capsys):
        code, payload = run_json(capsys, "min-kernel", files["star.irep"], "--adjusted")
        assert code == 0 and payload["set"] == [0]

    def test_max_kernel(self, files, capsys):
        code, payload = run_json(capsys, "max-kernel", files["two.irep"])
        assert code == 0 and payload["objective"] == "max"

    def test_absorbing_dominating(self, files, capsys):
        code, payload = run_json(capsys, "absorbing", files["two.irep"])
        assert code == 0 and payload["set"] == [1]
        code, payload = run_json(capsys, "dominating", files["two.irep"])
        assert code == 0 and payload["set"] == [0]

    def test_clean_integer_files_build_no_intervals(self, capsys, tmp_path, monkeypatch):
        """A clean integer file reaches the solvers as columns: the sweeps and
        ``min-kernel --adjusted`` answer alike while building an ``Interval`` raises."""
        sweep = tmp_path / "sweep.irep"
        sweep.write_text(emit_interval_rep(gen_reflexive_interval(30, 5, max_len=4)))
        star = tmp_path / "star.irep"
        star.write_text("intervals 4\n0 0 1 0 20\n1 2 3 2 2\n2 4 5 4 4\n3 6 7 6 6\n")
        calls = [("kernel", sweep), ("absorbing", sweep), ("dominating", sweep),
                 ("min-kernel", star, "--adjusted")]
        expected = [run(capsys, *map(str, call)) for call in calls]
        assert all(code == 0 for code, _ in expected)
        assert json.loads(expected[-1][1])["set"] == [0]

        def refuse(*args):
            raise AssertionError("an Interval was built")

        monkeypatch.setattr(Interval, "__init__", refuse)
        for call, want in zip(calls, expected):
            assert run(capsys, *map(str, call)) == want

    def test_mis_with_weights(self, files, capsys, tmp_path):
        g = Digraph(3, [(0, 1), (1, 2)])
        dg = tmp_path / "path.dg"
        dg.write_text(emit_digraph(g))
        ordf = tmp_path / "path.ord"
        ordf.write_text("0 1 2\n")
        wf = tmp_path / "w.txt"
        wf.write_text("5 9 5\n")
        code, payload = run_json(capsys, "mis", str(dg), str(ordf))
        assert code == 0 and payload["set"] == [0, 2]
        code, payload = run_json(capsys, "mis", str(dg), str(ordf),
                                 "--weights", str(wf))
        assert code == 0 and payload["value"] == 10

    def test_weighted_kernels_pick_different_optima(self, capsys, tmp_path):
        # symmetric 4-cycle: kernels are the two diagonals
        c4 = Digraph(4, [(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2),
                         (3, 0), (0, 3)])
        dg = tmp_path / "c4.dg"
        dg.write_text(emit_digraph(c4))
        ordf = tmp_path / "c4.ord"
        ordf.write_text("0 1 3 2\n")
        wf = tmp_path / "w.txt"
        wf.write_text("5 1 5 1\n")
        code, payload = run_json(capsys, "min-kernel", str(dg), str(ordf),
                                 "--weights", str(wf))
        assert code == 0 and payload["set"] == [1, 3] and payload["value"] == 2
        code, payload = run_json(capsys, "max-kernel", str(dg), str(ordf),
                                 "--weights", str(wf))
        assert code == 0 and payload["set"] == [0, 2] and payload["value"] == 10

    def test_red_blue(self, files, capsys, tmp_path):
        bg = tmp_path / "rb.bg"
        bg.write_text("bigraph 2 1\nA 0 0 1\nA 1 5 6\nB 0 0 2\n")
        code, payload = run_json(capsys, "red-blue", str(bg))
        assert code == 2 and payload == {"status": "no-dominating-set"}
        bg2 = tmp_path / "rb2.bg"
        bg2.write_text("bigraph 1 1\nA 0 0 1\nB 0 0 2\n")
        code, payload = run_json(capsys, "red-blue", str(bg2))
        assert code == 0 and payload["set"] == [0]


class TestRecognitionAndChecks:
    def test_recognize_point_point(self, files, capsys):
        code, payload = run_json(capsys, "recognize-pp", files["tri.dg"])
        assert code == 0 and payload["status"] == "point-point"
        assert "s" in payload["points"] and "t" in payload["points"]

    def test_recognize_rejects_with_witness(self, files, capsys):
        code, payload = run_json(capsys, "recognize-pp", files["aw.dg"])
        assert code == 2 and payload["status"] == "not-point-point"
        assert set(payload["witness"]) == {"a", "b", "c", "d"}

    @pytest.mark.parametrize("wrong", [
        PointRep((0, 1, 2), (1, 2, 1)),  # the triangle's points, one moved
        AntiWalkWitness(0, 1, 2, 0),     # the triangle has no anti-walk
    ])
    def test_recognize_checks_its_answer(self, files, capsys, monkeypatch, wrong):
        monkeypatch.setattr(pointpoint, "_decide_point_point", lambda g: wrong)
        code, payload = run_json(capsys, "recognize-pp", files["tri.dg"])
        assert code == 1 and payload["status"] == "error"
        assert payload["error"].startswith("RuntimeError: point-point recognizer")

    def test_check_ordering(self, files, capsys):
        code, payload = run_json(capsys, "check-ordering", files["nk.dg"],
                                 files["nk.ord"], "--kind", "duf")
        assert code == 0 and payload["status"] == "valid"
        code, payload = run_json(capsys, "check-ordering", files["tri.dg"],
                                 files["nk.ord"][:0] or files["nk.ord"],
                                 "--kind", "duf")
        # directed triangle has 3 vertices but ordering has 4: error path
        assert code == 1

    def test_check_ordering_violation(self, files, capsys, tmp_path):
        ordf = tmp_path / "o.ord"
        ordf.write_text("0 1 2\n")
        code, payload = run_json(capsys, "check-ordering", files["tri.dg"],
                                 str(ordf), "--kind", "duf")
        assert code == 2 and payload["status"] == "violation"
        assert payload["witness"]["kind"].startswith("duf")

    def test_verify(self, files, capsys):
        code, payload = run_json(capsys, "verify", files["two.irep"],
                                 files["set1.txt"], "--kind", "kernel")
        assert code == 0 and payload["pass"] is True
        code, payload = run_json(capsys, "verify", files["two.irep"],
                                 files["set0.txt"], "--kind", "kernel")
        assert code == 2 and payload["pass"] is False


def refuse_everywhere(monkeypatch, fn):
    """Make every module of the package that bound ``fn`` raise on a call."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"{fn.__name__} was called")
    for name, module in list(sys.modules.items()):
        if name == "intdigraph" or name.startswith("intdigraph."):
            for key, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, key, refuse)


def test_verify_checks_an_intervals_file_as_its_realized_digraph(capsys, monkeypatch, tmp_path):
    """Every kind of ``verify`` on an intervals file answers as on the
    digraph it realizes, and realizes none."""
    reps = [two_vertex_example_rep(), gen_reflexive_interval(14, 3, grid=20, max_len=5),
            intdigraph.IntervalRep([((0, 1), (2, 3)), ((2, 5), (0, 2)), ((1, 1), (1, 4))])]
    sets = ["", "0\n", "2 0 2\n", "1 2 5 7 11 13\n", "0 9\n"]
    for i, text in enumerate(sets):
        (tmp_path / f"{i}.set").write_text(text)
    calls = []
    for r, rep in enumerate(reps):
        (tmp_path / f"{r}.irep").write_text(emit_interval_rep(rep))
        (tmp_path / f"{r}.dg").write_text(emit_digraph(intdigraph.realize_digraph(rep)))
        calls += [(r, i, kind) for i in range(len(sets)) for kind in VERIFY_MODES]

    def answer(r, i, kind, suffix):
        return run(capsys, "verify", str(tmp_path / f"{r}.{suffix}"),
                   str(tmp_path / f"{i}.set"), "--kind", kind)
    want = [answer(*call, "dg") for call in calls]
    assert {code for code, _ in want} == {0, 1, 2}
    assert [answer(*call, "irep") for call in calls] == want
    refuse_everywhere(monkeypatch, intdigraph.realize_digraph)
    assert [answer(*call, "irep") for call in calls] == want


class TestBuildRepAndSubdivision:
    def test_build_rep_realizes(self, files, capsys, tmp_path):
        g = Digraph(2, [(0, 1)], loops=[0, 1])
        dg = tmp_path / "p.dg"
        dg.write_text(emit_digraph(g))
        ordf = tmp_path / "p.ord"
        ordf.write_text("0 1\n")
        code, out = run(capsys, "build-rep", str(dg), str(ordf))
        assert code == 0
        rep = parse_interval_rep(out)
        assert verify_representation(rep, g)

    def test_subdivide_lift_project(self, files, capsys, tmp_path):
        code, payload = run_json(capsys, "subdivide", files["ab.dg"], "--k", "2")
        assert code == 0
        map_path = tmp_path / "map.json"
        map_path.write_text(json.dumps(payload["map"]))
        host = parse_digraph(payload["map"]["host"])
        assert host.n == 6 and host.m == 6

        code, lifted = run_json(capsys, "lift", str(map_path), files["set0.txt"],
                                "--kind", "kernel")
        assert code == 0 and lifted["size"] == 3
        hset = tmp_path / "hset.txt"
        hset.write_text(" ".join(str(v) for v in lifted["set"]))
        code, projected = run_json(capsys, "project", str(map_path), str(hset),
                                   "--kind", "kernel")
        assert code == 0 and projected["set"] == [0]


class TestOracleCommands:
    def test_oracle_kernel(self, files, capsys):
        code, payload = run_json(capsys, "oracle", "kernel", files["nk.dg"])
        assert code == 2 and payload == {"status": "no-kernel"}
        code, payload = run_json(capsys, "oracle", "kernel", files["two.irep"],
                                 "--objective", "min")
        assert code == 0 and payload["set"] == [1]

    def test_oracle_kernel_reads_the_weights(self, capsys, tmp_path):
        """Weighted min and max kernels: the oracle agrees with the DP on the
        realized digraph and the extracted ordering."""
        from intdigraph import extract_duf_ordering, normalize, realize_digraph
        rep = normalize(gen_reflexive_interval(12, 5))
        paths = {"g.dg": emit_digraph(realize_digraph(rep)),
                 "g.ord": emit_ordering(extract_duf_ordering(rep)),
                 "w.txt": " ".join("19"[v % 2] for v in range(12)) + "\n"}
        for name, text in paths.items():
            (tmp_path / name).write_text(text)
        dg, ordf, wf = (str(tmp_path / name) for name in paths)
        for objective in ("min", "max"):
            code, dp = run_json(capsys, f"{objective}-kernel", dg, ordf, "--weights", wf)
            assert code == 0
            code, brute = run_json(capsys, "oracle", "kernel", dg, "--objective", objective,
                                   "--weights", wf)
            assert code == 0 and brute["value"] == dp["value"]
            assert sum(9 if v % 2 else 1 for v in brute["set"]) == brute["value"]

    def test_oracle_without_weights_rejects_them(self, files, capsys):
        for problem, instance in (("absorbing", files["two.irep"]),
                                  ("anti-walk", files["aw.dg"])):
            code, payload = run_json(capsys, "oracle", problem, instance,
                                     "--weights", files["set1.txt"])
            assert code == 1 and payload == {
                "status": "error",
                "error": f"ValueError: the {problem} oracle does not take weights"}

    @pytest.mark.parametrize("problem,instance,option", [
        ("absorbing", "nk.dg", ["--objective", "max"]),
        ("independent", "two.irep", ["--objective", "min"]),
        ("red-blue", "one.bg", ["--objective", "min"]),
        ("kernel", "nk.dg", ["--kind", "duf"]),
        ("anti-walk", "aw.dg", ["--kind", "reflexive"]),
        ("ordering-search", "tri.dg", ["--objective", "exists"]),
        ("ordering-search", "tri.dg", ["--weights", "set1.txt"]),
    ])
    def test_oracle_rejects_an_option_it_does_not_read(self, files, capsys, problem,
                                                       instance, option):
        name, value = option
        value = files.get(value, value)
        code, payload = run_json(capsys, "oracle", problem, files[instance], name, value)
        assert code == 1 and payload == {
            "status": "error",
            "error": f"ValueError: the {problem} oracle does not take {name[2:]}"}

    def test_oracle_ordering_search(self, files, capsys):
        code, payload = run_json(capsys, "oracle", "ordering-search",
                                 files["tri.dg"], "--kind", "duf")
        assert code == 2 and payload["status"] == "no-ordering"

    def test_oracle_k33(self, files, capsys):
        code, payload = run_json(capsys, "oracle", "k33", files["tri.dg"])
        assert code == 2 and payload["status"] == "none"

    def test_oracle_reads_one_instance(self, files):
        """A second file is a usage error, not ignored after the first answers."""
        env = dict(os.environ, PYTHONPATH=str(Path(intdigraph.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "intdigraph.cli", "oracle", "kernel", files["nk.dg"],
             files["two.irep"]], capture_output=True, env=env, timeout=60)
        assert proc.returncode != 0 and proc.stdout == b""

    def test_oracle_anti_walk(self, files, capsys):
        code, payload = run_json(capsys, "oracle", "anti-walk", files["aw.dg"])
        assert code == 0 and payload["status"] == "ok"

    def test_oracle_budget_flag(self, files, capsys, tmp_path):
        big = tmp_path / "big.dg"
        big.write_text(emit_digraph(Digraph(17)))
        code, payload = run_json(capsys, "oracle", "kernel", str(big))
        assert code == 1 and "limited" in payload["error"]
        code, payload = run_json(capsys, "oracle", "kernel", str(big),
                                 "--budget-n", "17")
        assert code == 0

    def test_oracle_anti_walk_budget(self, files, capsys, tmp_path):
        big = tmp_path / "big.dg"
        big.write_text(emit_digraph(Digraph(31)))
        code, payload = run_json(capsys, "oracle", "anti-walk", str(big))
        assert code == 1 and payload["error"] == (
            "BudgetExceeded: anti-walk oracle limited to n <= 30, got 31")
        code, payload = run_json(capsys, "oracle", "anti-walk", files["aw.dg"],
                                 "--budget-n", "3")
        assert code == 1 and payload["error"] == (
            "BudgetExceeded: anti-walk oracle limited to n <= 3, got 4")

    @pytest.mark.parametrize("problem, instance", [
        ("kernel", "ab.dg"), ("absorbing", "two.irep"), ("anti-walk", "aw.dg")])
    def test_negative_budget_is_rejected(self, files, capsys, problem, instance):
        code, payload = run_json(capsys, "oracle", problem, files[instance],
                                 "--budget-n", "-1")
        assert code == 1 and payload == {
            "status": "error", "error": "ValueError: --budget-n must be non-negative, got -1"}


class TestGen:
    def test_deterministic(self, capsys):
        code1, out1 = run(capsys, "gen", "reflexive-interval", "--n", "5",
                          "--seed", "7")
        code2, out2 = run(capsys, "gen", "reflexive-interval", "--n", "5",
                          "--seed", "7")
        assert code1 == code2 == 0 and out1 == out2

    def test_generated_rep_is_reflexive(self, capsys):
        from intdigraph import is_reflexive
        _, out = run(capsys, "gen", "reflexive-interval", "--n", "6", "--seed", "3")
        assert is_reflexive(parse_interval_rep(out))

    def test_p_zero_digraph_is_edgeless(self, capsys):
        _, out = run(capsys, "gen", "random-digraph", "--n", "6", "--p", "0",
                     "--seed", "1")
        assert parse_digraph(out).m == 0

    def test_json_wrapper(self, capsys):
        code, payload = run_json(capsys, "gen", "random-digraph", "--n", "3",
                                 "--p", "0", "--json")
        assert code == 0 and payload["instance"].startswith("digraph 3")

    def test_max_len_above_grid(self, capsys):
        from intdigraph.generators import gen_reflexive_interval
        code, out = run(capsys, "gen", "reflexive-interval", "--n", "1", "--max-len", "6")
        assert code == 0 and parse_interval_rep(out).n == 1
        for grid in range(4):
            for max_len in range(grid, grid + 4):
                for seed in range(20):
                    rep = gen_reflexive_interval(5, seed, grid=grid, max_len=max_len)
                    assert all(0 <= iv.lo and iv.hi <= grid
                               for iv in rep.source + rep.target)

    def test_negative_bigraph_part_is_rejected(self, capsys):
        for sizes in (("-2", "1"), ("1", "-1")):
            code, payload = run_json(capsys, "gen", "interval-bigraph",
                                     "--a", sizes[0], "--b", sizes[1])
            assert code == 1 and payload["error"] == (
                "ValueError: part sizes must be non-negative")

    @pytest.mark.parametrize("args, name", [
        ("reflexive-interval --n 3 --grid -1", "grid"),
        ("reflexive-interval --n 3 --max-len -2", "max_len"),
        ("interval-bigraph --a 2 --b 2 --grid -5", "grid"),
        ("interval-bigraph --a 2 --b 2 --max-len -1", "max_len"),
    ])
    def test_negative_grid_or_length_is_rejected(self, capsys, args, name):
        code, payload = run_json(capsys, "gen", *args.split())
        assert code == 1 and payload["error"] == f"ValueError: {name} must be non-negative"

    @pytest.mark.parametrize("args", [
        "random-digraph --n -2", "subdivided --n -2", "reflexive-interval --n -1",
        "random-digraph --n -1 --p 2"])
    def test_negative_vertex_count_is_rejected(self, capsys, args):
        code, payload = run_json(capsys, "gen", *args.split())
        assert code == 1 and payload["error"] == "ValueError: n must be non-negative"

    def test_probability_out_of_range_is_rejected(self, capsys):
        code, payload = run_json(capsys, "gen", "random-digraph", "--p", "1.5")
        assert code == 1 and payload["error"] == (
            "ValueError: probabilities must lie in [0, 1]")

    def test_subdivided(self, capsys):
        _, out = run(capsys, "gen", "subdivided", "--n", "4", "--p", "0.5",
                     "--k", "2", "--seed", "5")
        host = parse_digraph(out)
        assert host.n >= 4


class TestErrors:
    def test_missing_file(self, capsys):
        code, payload = run_json(capsys, "kernel", "/nonexistent/x.irep")
        assert code == 1 and payload["status"] == "error"

    def test_parse_error(self, files, capsys):
        code, payload = run_json(capsys, "kernel", files["bad.irep"])
        assert code == 1 and "line 2" in payload["error"]

    def test_empty_ordering_round_trips(self, capsys, tmp_path):
        """``digraph 0`` and its emitted ordering run like any other pair, on
        every command that reads one."""
        from intdigraph import Ordering
        dg, ordf = tmp_path / "empty.dg", tmp_path / "empty.ord"
        dg.write_text(emit_digraph(Digraph(0)))
        ordf.write_text(emit_ordering(Ordering(())))
        code, payload = run_json(capsys, "mis", str(dg), str(ordf))
        assert code == 0 and payload["set"] == [] and payload["value"] == 0
        code, payload = run_json(capsys, "check-ordering", str(dg), str(ordf),
                                 "--kind", "duf")
        assert code == 0 and payload["status"] == "valid"
        code, out = run(capsys, "build-rep", str(dg), str(ordf))
        assert code == 0 and parse_interval_rep(out).n == 0
        code, payload = run_json(capsys, "min-kernel", str(dg), str(ordf))
        assert code == 0 and payload["set"] == [] and payload["value"] == 0

    def test_wrong_input_combination(self, files, capsys):
        code, payload = run_json(capsys, "min-kernel", files["nk.dg"])
        assert code == 1 and payload["status"] == "error"
        code, payload = run_json(capsys, "mis", files["nk.dg"], files["nk.ord"],
                                 files["nk.ord"])
        assert code == 1 and "got 3 files" in payload["error"]

    @pytest.mark.parametrize("command", ["min-kernel", "max-kernel"])
    def test_adjusted_takes_only_an_intervals_file(self, files, capsys, command):
        """``--adjusted`` on a digraph plus an ordering is an error, not a
        plain DUF answer with the flag dropped."""
        code, payload = run_json(capsys, command, files["nk.dg"], files["nk.ord"],
                                 "--adjusted")
        assert code == 1 and payload == {
            "status": "error",
            "error": "ValueError: --adjusted takes exactly one intervals file"}

    @pytest.mark.parametrize("command,text", [
        ("kernel", "intervals -5\n"),
        ("absorbing", "intervals -5\n"),
        ("kernel", "intervals 2\n0 0 1 0 1\n"),
        ("kernel", f"intervals {10**12}\n0 0 1 0 1\n"),
        ("red-blue", "bigraph -1 2\n"),
        ("red-blue", "bigraph 1 -1\nA 0 0 1\n"),
        ("red-blue", "bigraph 2 1\nA 0 0 1\nB 0 0 2\n"),
        ("red-blue", f"bigraph {10**12} 1\nB 0 0 2\n"),
    ])
    def test_bad_vertex_counts_in_headers(self, capsys, tmp_path, command, text):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code, payload = run_json(capsys, command, str(path))
        assert code == 1 and payload["status"] == "error"
        assert "line 1" in payload["error"]

    @pytest.mark.parametrize("text,error", [
        ("bigraph 2 1\nA 5 0 1\nA 1 0 1\nB 0 0 2\n", "line 2: index 5 out of range for part A"),
        ("bigraph 2 1\nA 0 0 1\nA 0 0 2\nB 0 0 2\n", "line 3: duplicate interval for A 0"),
        ("bigraph 1 1\nA 0 3 1\nB 0 0 2\n", "line 2: interval [3, 1] has lo > hi"),
        ("bigraph 1 1\nA 0 0 1\nB 0 1.5 2\n",
         "line 3: expected an integer or p/q rational, got '1.5'"),
    ], ids=["index", "duplicate", "lo-above-hi", "not-rational"])
    def test_bad_bigraph_records(self, capsys, tmp_path, text, error):
        path = tmp_path / "bad.bg"
        path.write_text(text)
        code, payload = run_json(capsys, "red-blue", str(path))
        assert code == 1 and payload == {"status": "error", "error": error}

    def test_bad_ordering_token(self, capsys, tmp_path):
        (tmp_path / "g.dg").write_text("digraph 2\n")
        (tmp_path / "o.ord").write_text("0 x\n")
        code, payload = run_json(capsys, "check-ordering", str(tmp_path / "g.dg"),
                                 str(tmp_path / "o.ord"), "--kind", "duf")
        assert code == 1 and payload == {"status": "error",
                                         "error": "line 1: expected an integer, got 'x'"}

    @pytest.mark.parametrize("change", [
        lambda m: [], lambda m: "s", lambda m: {**m, "paths": []},
        lambda m: {**m, "paths": {"0 1": 5}}, lambda m: {**m, "paths": {"0 1": [2, "3"]}},
        lambda m: {**m, "k": None}, lambda m: {**m, "k": "2"},
        lambda m: {**m, "origin": 5}, lambda m: {**m, "host": ["digraph 2"]},
    ], ids=["list", "string", "paths-list", "path-int", "path-str-id", "k-null", "k-str",
            "origin-int", "host-list"])
    @pytest.mark.parametrize("command", ["lift", "project"])
    def test_malformed_subdivision_map_is_a_json_error(self, files, capsys, tmp_path,
                                                       command, change):
        code, payload = run_json(capsys, "subdivide", files["ab.dg"], "--k", "2")
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(change(payload["map"])))
        code, payload = run_json(capsys, command, str(path), files["set0.txt"])
        assert code == 1 and payload["status"] == "error"

    @pytest.mark.parametrize("change,error", [
        (lambda m: {**m, "k": 0}, "subdivision needs k >= 1, got 0"),
        (lambda m: {**m, "k": -2}, "subdivision needs k >= 1, got -2"),
        (lambda m: {**m, "paths": {"x": [2, 3]}}, "path key 'x' is not two vertex ids"),
        (lambda m: {**m, "paths": {"0 a": [2, 3]}}, "path key '0 a' is not two vertex ids"),
        (lambda m: {**m, "paths": {"0 1 2": [2, 3]}},
         "path key '0 1 2' is not two vertex ids"),
    ], ids=["k-zero", "k-negative", "key-one-token", "key-not-int", "key-three-tokens"])
    @pytest.mark.parametrize("command", ["lift", "project"])
    def test_bad_subdivision_map_names_its_fault(self, files, capsys, tmp_path,
                                                 command, change, error):
        """An input error, not the solver's self-check: ``lift`` on k = 0 used
        to exit with ``RuntimeError: lifted set has 2 vertices, expected 1``."""
        code, payload = run_json(capsys, "subdivide", files["ab.dg"], "--k", "2")
        path = tmp_path / "bad.map"
        path.write_text(json.dumps(change(payload["map"])))
        code, payload = run_json(capsys, command, str(path), files["set0.txt"])
        assert code == 1 and payload == {"status": "error", "error": f"ValueError: {error}"}

    @pytest.mark.parametrize("argv", [
        ["mis", "@path.dg", "@path.ord", "--weights", "@w.txt"],
        ["max-kernel", "@path.dg", "@path.ord", "--weights", "@w.txt"],
    ])
    def test_short_weights_file_is_a_json_error(self, capsys, tmp_path, argv):
        for name, text in (("path.dg", "digraph 3\n0 1\n1 2\n"), ("path.ord", "0 1 2\n"),
                           ("w.txt", "5 9\n")):
            (tmp_path / name).write_text(text)
        code, payload = run_json(capsys, *[str(tmp_path / a[1:]) if a[0] == "@" else a
                                           for a in argv])
        assert code == 1 and payload == {"status": "error",
                                         "error": "ValueError: expected 3 weights, got 2"}

    @pytest.mark.parametrize("n,error", [
        (2**62, "MemoryError"),
        (2**63, "OverflowError: cannot fit 'int' into an index-sized integer"),
    ])
    def test_huge_digraph_header_is_a_json_error(self, files, capsys, tmp_path, n, error):
        path = tmp_path / "huge.dg"
        path.write_text(f"digraph {n}\n")
        code, payload = run_json(capsys, "verify", str(path), files["set0.txt"],
                                 "--kind", "kernel")
        assert code == 1 and payload["status"] == "error"
        assert payload["error"].startswith(f"line 1: header declares {n} vertices")
        assert payload["error"].endswith(f"({error.split(':')[0]})")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("argv,code", [
    (["kernel", "@two.irep"], 0),
    (["kernel", "@bad.irep"], 1),
    (["min-kernel", "@nk.dg"], 1),
])
def test_main_restores_the_gc_state(files, capsys, argv, code, enabled):
    argv = [files[a[1:]] if a.startswith("@") else a for a in argv]
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(capsys, *argv)[0] == code
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was_enabled else gc.disable()


@pytest.mark.parametrize("enabled", [True, False])
def test_no_parser_is_alive_while_a_command_runs(files, capsys, monkeypatch, made_parsers,
                                                 enabled):
    """The argument parsers are cyclic garbage once they have read the
    arguments; ``main`` frees them before the command runs with cyclic GC
    off.  Only the parsers this test builds are counted: two per call, the
    top-level parser and the command's own."""
    counts = []

    def counting_read(path):
        counts.append((len(made_parsers), sum(r() is not None for r in made_parsers)))
        return read(path)
    read = intdigraph.cli._read
    monkeypatch.setattr(intdigraph.cli, "_read", counting_read)
    was_enabled = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        assert run(capsys, "kernel", files["two.irep"])[0] == 0
        assert run(capsys, "min-kernel", files["star.irep"], "--adjusted")[0] == 0
    finally:
        gc.enable() if was_enabled else gc.disable()
    assert counts == [(2, 0), (4, 0)]


def test_package_has_no_assert_statements():
    # python -O strips asserts, and the CLI reports RuntimeError, not AssertionError
    package = Path(intdigraph.__file__).parent
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements at lines {lines}"


def test_closed_stdout_exits_1_without_a_traceback():
    """The reader stops after 5 bytes of a 0.5 MB instance, as
    ``intdigraph gen ... | head -c 5`` does, for the JSON and the text
    payload, with stdout buffered (the default) and unbuffered
    (``python -u``).  Buffered, the exit-time flush must stay quiet;
    unbuffered, a short write of the text payload to the pipe used to
    drop the tail and exit 0."""
    base = dict(os.environ, PYTHONPATH=str(Path(intdigraph.__file__).parents[1]))
    base.pop("PYTHONUNBUFFERED", None)
    for env in (base, dict(base, PYTHONUNBUFFERED="1")):
        for extra, head in ((["--json"], b'{\n  "'), ([], b"inter")):
            proc = subprocess.Popen(
                [sys.executable, "-m", "intdigraph.cli", "gen", "reflexive-interval",
                 "--n", "20000", *extra],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
            assert proc.stdout.read(5) == head
            proc.stdout.close()
            stderr = proc.stderr.read().decode()
            proc.stderr.close()
            case = (extra, "PYTHONUNBUFFERED" in env)
            assert proc.wait(timeout=60) == 1, case
            assert "Traceback" not in stderr and "BrokenPipeError" not in stderr, (case, stderr)


def test_stdout_closed_before_the_write_exits_1_quietly():
    """``intdigraph gen ... | true``: the reader is gone before a small
    payload is flushed, so the flush raises and the bytes it kept must not
    raise again at interpreter exit (which would print "Exception ignored"
    and exit 120)."""
    env = dict(os.environ, PYTHONPATH=str(Path(intdigraph.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    for extra in (["--json"], []):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "intdigraph.cli", "gen", "reflexive-interval",
                 "--n", "5", *extra],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, extra
        assert proc.stderr == b"", (extra, proc.stderr)
