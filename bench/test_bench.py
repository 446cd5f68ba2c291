"""Tests of the benchmark itself: run with ``python3 -m pytest bench -q``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(completed):
    return json.loads(completed.stdout.strip().splitlines()[-1])


def test_spec_follows_the_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, key):
    completed = _bench("--workload", "synth2d", "--seed", "3", "--seconds", "1",
                       "--trace", str(trace))
    assert completed.returncode == 0, completed.stdout + completed.stderr
    result = _result(completed)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC[key]
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if key == "end_to_end":
            assert metric["value"] > 0, name
            assert any(line.startswith(f"{name}: ") for line in completed.stdout.splitlines())


def test_forced_failing_check_raises_ops_failed(monkeypatch):
    monkeypatch.setitem(workloads.SYNTH2D_FLOPS, "cascaded", [1, 2, 3])
    document, lines = run.run("synth2d", seed=3, seconds=0.5, trace=False)
    assert document["failed"] >= 1
    assert document["correct"] is False
    assert any(line.startswith("FAILED fit: cascaded: flop sequence") for line in lines)


def test_a_raising_operation_counts_as_failed():
    recorder = run.Recorder()
    assert recorder.attempt("ok", lambda: []) is True
    assert recorder.attempt("boom", lambda: 1 / 0) is False
    assert (recorder.attempted, len(recorder.failures)) == (2, 1)


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = _bench("--workload", "synth2d", "--seed", "1", "--seconds", "1", "--trace", "0",
                       cwd=tmp_path)
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
