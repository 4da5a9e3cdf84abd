"""Tests of the benchmark itself, at smoke sizes:

    python3 -m pytest perfbench
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CALL_ARGS = dict(run.workloads.CALLS)
REJECT_ARGS = dict(run.workloads.REJECT_CALLS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_smoke_run_checks_and_reports_every_metric(workload, trace):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= run.MIN_PASSES * len(run.workloads.CALLS)
    specs = BENCH["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in specs]
    for spec in specs:
        assert result["metrics"][spec["name"]]["unit"] == spec["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def _drop_last_vertex(payload):
    payload["set"] = payload["set"][:-1]
    payload["size"] -= 1
    payload["value"] -= 1


def _claim_better_value(payload):
    payload["value"] -= 1


def _flip_status(payload):
    payload["status"] = "violation"


def _uncheck_certificate(payload):
    payload["certificate_checked"] = False


@pytest.mark.parametrize("call, tamper", [
    ("absorbing", _drop_last_vertex),
    ("min_kernel", _drop_last_vertex),
    ("mis", _claim_better_value),
    ("max_kernel", _claim_better_value),
    ("check_duf", _flip_status),
    ("kernel", _uncheck_certificate),
])
def test_gate_counts_a_wrong_answer_as_failed(call, tamper):
    inst = run.workloads.build(run.WORK / "test-gate", run.workloads.SMOKE_SIZES, seed=5)
    checker = run.gate.Gate(inst.refs)
    code, text, _ = run.spans.run_main(inst.argv(CALL_ARGS[call]))
    assert checker.check(call, code, text), checker.errors
    payload = json.loads(text)
    tamper(payload)
    assert not checker.check(call, code, json.dumps(payload))
    assert not checker.check(call, 2, text)
    assert (checker.attempted, checker.failed) == (3, 2)


@pytest.mark.parametrize("call, accepting", [
    ("check_duf_rejects", "check_duf"),
    ("check_reflexive_rejects", "check_reflexive"),
    ("verify_rejects", "verify"),
])
def test_gate_counts_an_accepted_reject_call_as_failed(call, accepting):
    """A checker that lost its ability to reject answers like it does on
    the valid instance; the gate must count that as failed."""
    inst = run.workloads.build(run.WORK / "test-gate", run.workloads.SMOKE_SIZES, seed=5)
    checker = run.gate.Gate(inst.refs)
    code, text, _ = run.spans.run_main(inst.argv(REJECT_ARGS[call]))
    assert checker.check(call, code, text), checker.errors
    _, accepted, _ = run.spans.run_main(inst.argv(CALL_ARGS[accepting]))
    assert not checker.check(call, run.gate.EXIT_REJECTED, accepted)
    assert not checker.check(call, 0, text)
    assert (checker.attempted, checker.failed) == (3, 2)


def test_references_match_the_library_solvers():
    from intdigraph.intervals import normalize
    from intdigraph.kernels import optimal_kernel_adjusted
    for seed in range(6):
        rep = run.workloads.gen_adjusted(60, seed, 240, 6)
        assert (run.gate.adjusted_kernel_value(rep, [1] * rep.n, "min")
                == optimal_kernel_adjusted(normalize(rep), "min").value)
        assert (run.gate.adjusted_kernel_value(rep, [1] * rep.n, "max")
                == optimal_kernel_adjusted(normalize(rep), "max").value)
