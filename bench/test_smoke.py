"""Smoke test of the benchmark's own code, at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Every workload must print every metric BENCHMARK.json declares, with its
unit, untraced and traced; the same seed must give the same inputs; and
without the program's sources the benchmark must fail without a result.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    assert run._use_sources()
    import workloads

    return workloads


@pytest.fixture
def tiny(workloads, monkeypatch):
    monkeypatch.setattr(workloads, "SETUP_ROUNDS", 2)
    monkeypatch.setattr(workloads, "LOOPBACK_SETUP_ROUNDS", 2)
    monkeypatch.setattr(workloads, "FUZZ_SETUP_WORLDS", 2)
    monkeypatch.setattr(workloads, "STORM_READERS", 4)
    monkeypatch.setattr(workloads, "STORM_HORIZON", 30)
    monkeypatch.setattr(workloads, "LOOPBACK_RATE", 10.0)


def _run(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_declared_metrics_match_the_runner():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert sorted(WORKLOADS) == sorted(["fuzz_mixed", "read_storm", "loopback_kv"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload, tiny, capsys):
    code, lines, result = _run(capsys, workload, 0)
    assert code == 0, lines
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    for spec in SPEC["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert metric["value"] > 0, spec["name"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    if workload != "loopback_kv":
        assert any(line.split()[0] == "trace_sha256" for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric_and_dumps_spans(workload, tiny, capsys):
    code, lines, result = _run(capsys, workload, 1)
    assert code == 0, lines
    assert result["correct"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    dump = BENCH / "out" / f"spans-{workload}-s3.jsonl"
    header, first = [json.loads(line) for line in dump.read_text().splitlines()[:2]]
    assert header["workload"] == workload and header["spans"] > 0
    assert set(first) == {"id", "parent", "name", "start_ns", "end_ns", "rid", "thread"}
    if workload == "loopback_kv":
        assert result["metrics"]["net.threads_left"]["value"] == 0
        assert 0 < result["metrics"]["net.threads_peak"]["value"] <= 600
    else:
        assert 0 < result["metrics"]["sim.step_self_share"]["value"] <= 1


def test_inputs_follow_the_seed(workloads):
    case = workloads.fuzz_case
    assert repr(case(workloads.derive(5, "x"), 3)) == repr(case(workloads.derive(5, "x"), 3))
    assert workloads._plan(5, 0, 50) == workloads._plan(5, 0, 50)
    assert workloads._plan(5, 0, 50) != workloads._plan(6, 0, 50)
    assert workloads.derive(5, "read_storm", 0) != workloads.derive(6, "read_storm", 0)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fuzz_mixed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
