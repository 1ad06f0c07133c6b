"""Smoke suite for the benchmark: ``python -m pytest bench -q``.

Every run here uses ``--scale smoke``, so the suite takes seconds.
"""

import gc
import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import ROOT
from bench.__main__ import CHILD_ENV
from bench.compare import verdict
from bench.tracer import TARGETS, Tracer, owner_of

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = SPEC["end_to_end"] + SPEC["per_layer"]
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(tmp_path, *args):
    out = tmp_path / "result.jsonl"
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--scale", "smoke", "--out",
         str(out), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    return proc, out


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two full smoke invocations: every workload, traced."""
    runs = []
    for i in range(2):
        proc, out = _bench(tmp_path_factory.mktemp(f"run{i}"),
                           "--repeats", "2")
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs.append((proc.stdout, json.loads(out.read_text())))
    return runs


def test_every_metric_is_printed_with_its_unit(smoke_runs):
    stdout, _ = smoke_runs[0]
    printed, workload = {}, None
    for line in stdout.splitlines()[:-1]:
        if not line.startswith("  "):
            workload = line.split(":")[0]
            continue
        metric, _value, unit = line.split()
        printed[workload, metric] = unit
    assert printed == {(w, m["name"]): m["unit"]
                       for w in WORKLOADS for m in METRICS}


def test_single_workload_prints_the_contract_line(tmp_path):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc, _ = _bench(tmp_path, "--workload", "stream_chunked",
                         "--seconds", "1", "--trace", str(trace))
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed",
                               "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["metrics"] == {
            m["name"]: {"value": result["metrics"][m["name"]]["value"],
                        "unit": m["unit"]}
            for m in SPEC[section]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_fingerprints_agree(workload):
    fingerprints = []
    for mode in ("time", "trace"):
        proc = subprocess.run(
            [sys.executable, "-m", "bench.repeat", mode, workload, "0",
             "smoke"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, **CHILD_ENV,
                 "PYTHONPATH": str(ROOT / "src")})
        assert proc.returncode == 0, proc.stderr
        fingerprints.append(json.loads(proc.stdout)["fingerprint"])
    assert fingerprints[0] == fingerprints[1]


def test_two_smoke_runs_are_identical(smoke_runs):
    def deterministic(record):
        out = {}
        for name, rec in record["workloads"].items():
            out[name, "fingerprint"] = rec["fingerprint"]
            for metric, m in rec["per_layer"].items():
                if metric.startswith("qos.") or (
                        m["unit"] in ("count", "fraction")
                        and not metric.startswith(("gc.", "trace."))):
                    out[name, metric] = m["value"]
        return out

    first, second = (deterministic(record) for _, record in smoke_runs)
    assert first == second


def test_tracer_restores_every_wrapped_attribute():
    def current():
        return [owner_of(module, owner).__dict__[attr]
                for module, owner, attr, _ in TARGETS]

    before = current()
    callbacks = list(gc.callbacks)
    with Tracer() as tracer:
        assert all(a is not b for a, b in zip(before, current()))
        from repro.mining.matching import MatchResult

        MatchResult.empty(4).map_blocks([1, 2, 3])
        assert [s[0] for s in tracer.spans if s[0] != "gc.pause"] == \
            ["mining.map_blocks"]
    assert all(a is b for a, b in zip(before, current()))
    assert gc.callbacks == callbacks


def test_compare_verdicts():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert verdict(base, [101.0, 102.0, 100.0], "lower", 0.05) == "ok"
    assert verdict(base, [120.0, 121.0, 119.0], "lower", 0.05) \
        == "regressed"
    assert verdict(base, [120.0, 121.0, 119.0], "higher", 0.05) == "ok"
    noisy = [50.0, 100.0, 150.0, 200.0]
    assert verdict(noisy, [160.0, 170.0], "lower", 0.05) == "unresolved"
    assert verdict(noisy, [40.0, 45.0], "lower", 0.05) == "ok"


def test_without_the_library_it_fails_before_printing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "cluster_hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
