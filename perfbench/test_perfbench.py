"""Tests of the benchmark itself, at smoke size.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checkout_source()

import tracing  # noqa: E402
import workloads  # noqa: E402
from crmostow import exact, structure  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
INVARIANT_KEYS = ("n_reductive", "dims", "regularization", "hnr", "strict_hnr", "cr_type", "f0_dim", "l_dim")


def _result(capsys, argv) -> dict:
    assert run.main(argv, smoke=True) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_emits_declared_metrics(capsys, workload, trace):
    res = _result(capsys, ["--workload", workload, "--seed", "3", "--seconds", "0.01", "--trace", str(trace)])
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    # the traced run puts every rebound attribute back
    assert structure.bracket is exact.bracket and not hasattr(exact.bracket, "__wrapped__")
    assert not hasattr(structure.Subalgebra.__init__, "__wrapped__")


def test_trace_isolates_layers(capsys):
    res = _result(capsys, ["--workload", "exact-large", "--seed", "1", "--seconds", "1", "--trace", "1"])
    metrics = {k: v["value"] for k, v in res["metrics"].items()}
    assert metrics["exact.bracket.calls"] > 0 and metrics["structure.rational_roots.calls"] > 0
    assert all(v == 0 for k, v in metrics.items() if k.startswith("symspace."))


def test_seed_changes_inputs_not_invariants():
    ops1 = workloads.prepare("exact-grid", 1, smoke=True)
    ops2 = workloads.prepare("exact-grid", 2, smoke=True)
    assert any(a.generators != b.generators for a, b in zip(ops1, ops2))
    for a, b in zip(ops1, ops2):
        (ra, dim_a), (rb, dim_b) = a.run({}), b.run({})
        assert {k: ra[k] for k in INVARIANT_KEYS} == {k: rb[k] for k in INVARIANT_KEYS}
        assert ra["witt_lower_bound"]["value"] == rb["witt_lower_bound"]["value"]
        assert a.check((ra, dim_a)) == [] and b.check((rb, dim_b)) == []

    mix1 = workloads.prepare("symspace-mix", 1, smoke=True)
    mix2 = workloads.prepare("symspace-mix", 2, smoke=True)
    assert not any(a.zeta.shape == b.zeta.shape and (a.zeta == b.zeta).all() for a, b in zip(mix1, mix2))
    assert workloads.run_pass(mix1).failed == 0 and workloads.run_pass(mix2).failed == 0


def test_corrupted_expected_value_is_a_failure():
    op = workloads.prepare("exact-large", 1, smoke=True)[0]
    bad = dataclasses.replace(op, expected=dataclasses.replace(op.expected, cr_type=(99, 99)))
    result = workloads.run_pass([op, bad])
    assert result.failed == 1 and len(result.latencies) == 2
    assert any("cr_type" in p for p in result.problems)

    numeric = workloads.prepare("symspace-mix", 1, smoke=True)
    decompose = next(o for o in numeric if o.kind == "decompose")
    result = workloads.run_pass([dataclasses.replace(decompose, bound=decompose.bound + 1.0)])
    assert result.failed == 1 and "fiber norm error" in result.problems[0]


def test_unknown_workload_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", "exact-tiny", "--seed", "1", "--seconds", "1", "--trace", "0"])
    assert exc.value.code != 0
    assert capsys.readouterr().out == ""
    with pytest.raises(ValueError):
        workloads.prepare("exact-tiny", 1)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_counting_dict_counts_hits():
    counter = tracing._Counter()
    d = tracing._counting(counter, {"a": 1})
    assert "a" in d and d.get("b") is None and d.get("a") == 1
    assert (counter.lookups, counter.hits) == (3, 2)
