"""Self-check of the benchmark at tiny sizes; makes no timing assertions.

Run: python3 -m pytest -q perfbench/test_selfcheck.py

Runs every workload, traced and untraced, with every correctness check, and
checks that the printed metrics are exactly the ones BENCHMARK.json names.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = HERE.parent) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_runs_clean(workload, trace):
    proc = _bench("--workload", workload, "--seed", "7", "--seconds", "0.5", "--trace", str(trace),
                  "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == \
        {entry["name"]: entry["unit"] for entry in declared}


def test_workloads_match_benchmark_json():
    assert [entry["name"] for entry in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_same_seed_same_inputs():
    first, second = workloads.build("analyze-redundant", 5, "tiny"), workloads.build("analyze-redundant", 5, "tiny")
    assert first[0] == second[0] and first[1].files == second[1].files


def test_checker_flags_wrong_output():
    plan, inputs = workloads.build("simulate-mix", 1, "tiny")
    checker = run.Checker(plan, inputs)
    ensemble = next(i for i, op in enumerate(plan) if op.get("ensemble"))
    good = checker.golden["outputs"][" ".join(plan[ensemble]["argv"])]
    assert checker.failures([[ensemble, 0.1, 0, "", good]], {good: _fake_ensemble_output(None)}) == []
    assert len(checker.failures([[ensemble, 0.1, 0, "", "0" * 64]], {})) == 1
    assert len(checker.failures([[ensemble, 0.1, 1, "error: x", good]], {})) == 1


def _fake_ensemble_output(mean):
    spec = workloads.SCALES["tiny"]
    expected = run.expected_mean_p_final(spec["ensemble_L"], spec["ensemble_steps"])
    results = {"mean_p_final": expected if mean is None else mean, "se_p_final": 1.0}
    return json.dumps({"command": "simulate", "inputs": {}, "results": results, "units": {}, "warnings": []})


def test_ensemble_oracle():
    plan, inputs = workloads.build("simulate-mix", 1, "tiny")
    checker = run.Checker(plan, inputs)
    op = next(op for op in plan if op.get("ensemble"))
    assert checker._json_problem(op, _fake_ensemble_output(None)) is None
    expected = run.expected_mean_p_final(op["ensemble"]["L"], op["ensemble"]["steps"])
    assert "standard errors" in checker._json_problem(op, _fake_ensemble_output(expected + 4.5))


def test_exact_mean_limits():
    length = 1000
    assert run.expected_mean_p_final(length, 0) > run.expected_mean_p_final(length, 10**7)
    relaxed = run.expected_mean_p_final(length, 10**7)
    assert relaxed == pytest.approx(run.expected_mean_p_final(length, 10**8), rel=1e-12)


def test_refuses_without_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cli-calculators", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
