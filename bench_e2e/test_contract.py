"""Keeps the end-to-end benchmark from rotting (collected by tier-1 pytest).

Static half: ``BENCHMARK.json`` and ``spec.py`` name the same workloads and
metrics, inside the limits of the driver's contract.  Dynamic half: one
``--smoke`` pass (serial, three cheap tasks, budget 2, no pools) must emit
every end-to-end name, and the same pass traced every per-layer name.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import spec  # noqa: E402 - needs HERE on the path

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.fixture(scope="module")
def contract():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as stream:
        return json.load(stream)


def test_keys_and_limits(contract):
    assert sorted(contract) == [
        "command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads",
    ]
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) <= 64 * 1024
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert contract["paths"] == ["bench_e2e"] and all(PATH.match(p) for p in contract["paths"])
    command = contract["command"]
    assert len(command) <= 32 and all(len(part) <= 200 for part in command)
    assert command == ["python3", "bench_e2e/run.py"]
    # every run must fit the driver's budget: 4 + 22 x workloads runs in 3420 s
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 6) <= 3420 * 0.85


def test_names_match_the_runner(contract):
    assert [w["name"] for w in contract["workloads"]] == list(spec.WORKLOADS)
    for workload in contract["workloads"]:
        assert sorted(workload) == ["name", "why"]
        assert workload["why"] == spec.WORKLOADS[workload["name"]]["why"]
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in contract["end_to_end"]
    ] == spec.END_TO_END
    assert [
        (m["name"], m["unit"], m["better"]) for m in contract["per_layer"]
    ] == [entry[:3] for entry in spec.PER_LAYER]
    for metric in contract["end_to_end"]:
        assert sorted(metric) == ["better", "bound", "name", "unit"]
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert sorted(metric) == ["better", "name", "unit"]
    names = [w["name"] for w in contract["workloads"]]
    names += [m["name"] for m in contract["end_to_end"] + contract["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("higher", "lower")
    setup = [m for m in contract["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in contract["end_to_end"])


def _smoke(*extra):
    completed = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke", *extra],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    line = json.loads(completed.stdout.strip().splitlines()[-1])
    assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    return line["metrics"]


def test_smoke_emits_every_end_to_end_metric():
    metrics = _smoke()
    assert list(metrics) == spec.END_TO_END_NAMES
    for name, metric in metrics.items():
        assert metric["unit"] == spec.END_TO_END_UNITS[name]
        assert metric["value"] > 0


def test_smoke_trace_emits_every_per_layer_metric():
    metrics = _smoke("--trace", "1")
    assert list(metrics) == spec.PER_LAYER_NAMES
    assert metrics["search.attributed_share"]["value"] >= 0.9
    assert metrics["backends.fold_count"]["value"] == 0  # serial: no pool work
    assert metrics["backends.leaked_artifacts"]["value"] == 0
