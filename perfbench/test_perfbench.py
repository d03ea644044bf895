"""Self-tests of the benchmark (not part of the repository's test suite).

Run from the repository root::

    python -m pytest perfbench -q

They check the declarations in ``BENCHMARK.json``, run every workload
in a tiny configuration and check that it prints every declared metric
with its unit, and pin the two determinism properties the benchmark
relies on: the seed changes the generated inputs, and the per-layer
counts of ``sim-unilateral`` repeat exactly for a fixed seed.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import explore_load  # noqa: E402
from common import REFERENCE_S, MachineSpeed, Outcome  # noqa: E402
import rt_load  # noqa: E402
import run as bench  # noqa: E402
import sim_load  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_declarations_are_valid():
    data = spec()
    assert set(data) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    names = [w["name"] for w in data["workloads"]]
    assert names == list(bench.WORKLOADS)
    for workload in data["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    seen = set(names)
    for metric in data["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in data["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in data["end_to_end"] + data["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]
        assert metric["better"] in ("higher", "lower")
        assert metric["name"] not in seen, metric["name"]
        seen.add(metric["name"])
    setup = [m for m in data["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in data["end_to_end"])
    assert 1 <= data["run_seconds"] <= 60
    # every run fits the time the whole series may take, counting ~10 s
    # of set-up and verification per run on average
    assert (4 + 22 * len(names)) * (data["run_seconds"] + 10) <= 3420


@pytest.fixture
def tiny(monkeypatch):
    """Shrink every workload to a smoke configuration."""
    monkeypatch.setattr(rt_load, "BOOTS", 1)
    monkeypatch.setattr(rt_load, "WARMUP_S", 0.2)
    monkeypatch.setattr(rt_load, "SLICES", 2)
    monkeypatch.setattr(sim_load, "N_GLOBALS", 20)
    monkeypatch.setattr(sim_load, "MIN_HISTORIES", 2)
    monkeypatch.setattr(sim_load, "TRACED_HISTORIES", 1)
    monkeypatch.setattr(explore_load, "RUNS_PER_BATCH", 4)
    monkeypatch.setattr(explore_load, "TRACED_RUNS", 8)
    monkeypatch.setattr(explore_load, "SETUP_BUILDS_PER_GROUP", 5)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_smoke_prints_every_declared_metric(tiny, capsys, workload, trace):
    code = bench.main(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    *_, note_line, result_line = capsys.readouterr().out.strip().splitlines()
    result = json.loads(result_line)
    notes = json.loads(note_line.removeprefix("perfbench: "))
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
    if trace:
        idle = {m["name"] for m in declared} - set(bench.exercised_layers(workload))
        assert notes["not_exercised"] == sorted(idle)
    else:
        assert all(value["value"] > 0 for value in result["metrics"].values())


def test_every_layer_metric_is_exercised_by_some_workload():
    exercised = [bench.exercised_layers(name) for name in bench.WORKLOADS]
    for names in exercised:
        assert len(names) == len(set(names))
    assert set().union(*exercised) == {m["name"] for m in spec()["per_layer"]}


def test_missing_exercised_metric_is_a_violation(monkeypatch, capsys):
    """A workload that stops reporting a metric it exercises fails the
    run instead of reading 0."""
    measured = dict.fromkeys(bench.exercised_layers("explore-random"), 1.0)
    del measured["explore.oracle_ms_per_run"]
    monkeypatch.setattr(
        bench,
        "run_workload",
        lambda *args: Outcome(metrics=measured, attempted=1),
    )
    code = bench.main(["--workload", "explore-random", "--trace", "1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_machine_speed_scales_times_down_and_rates_up_on_a_slow_machine():
    speed = MachineSpeed()
    speed.samples = [REFERENCE_S, 2 * REFERENCE_S, 3 * REFERENCE_S]
    scaled = speed.normalize(
        {"throughput_per_s": 100.0, "latency_p50_ms": 8.0}, rates=("throughput_per_s",)
    )
    assert scaled == {"throughput_per_s": 200.0, "latency_p50_ms": 4.0}


def test_seed_changes_generated_inputs():
    bank = rt_load.BankConfig()

    def rt_inputs(seed):
        generated = rt_load.make_workload(seed, 50, bank)
        return [str(g.spec.steps) for g in generated.schedule.globals_]

    assert rt_inputs(1) == rt_inputs(1)
    assert rt_inputs(1) != rt_inputs(2)
    assert rt_load.arrival_offsets(1, 150.0, 1.0) != rt_load.arrival_offsets(2, 150.0, 1.0)

    def sim_inputs(seed):
        _system, schedule = sim_load.build(sim_load.history_seed(seed, 0))
        return [str(g.spec.steps) for g in schedule.globals_]

    assert sim_inputs(1) == sim_inputs(1)
    assert sim_inputs(1) != sim_inputs(2)

    def explore_traces(seed):
        traces = []
        explore_load.explore_random(
            explore_load.ExploreSpec(),
            seed=seed * 1009,
            max_runs=3,
            on_run=lambda result: traces.append(result.trace),
        )
        return traces

    assert explore_traces(1) != explore_traces(2)


COUNTS = (
    "kernel.events_per_txn",
    "kernel.schedule_calls_per_txn",
    "net.messages_per_txn",
    "ldbs.lock_requests_per_txn",
    "ldbs.lock_waits_per_txn",
    "core.certifier.prepare_checks_per_txn",
    "core.certifier.commit_checks_per_txn",
    "core.certifier.prepare_refusal_ratio",
    "core.agent.resubmissions_per_txn",
    "failed_ratio",
)


def test_sim_layer_counts_repeat_for_a_fixed_seed(monkeypatch):
    monkeypatch.setattr(sim_load, "N_GLOBALS", 60)
    monkeypatch.setattr(sim_load, "TRACED_HISTORIES", 2)
    first = sim_load.run(7, 1.0, True, None)
    second = sim_load.run(7, 1.0, True, None)
    assert not first.violations and not second.violations
    counts = {name: first.metrics[name] for name in COUNTS}
    assert counts == {name: second.metrics[name] for name in COUNTS}
    assert counts["kernel.events_per_txn"] > 0
    assert counts["core.certifier.prepare_checks_per_txn"] > 0
    other = sim_load.run(8, 1.0, True, None)
    assert {name: other.metrics[name] for name in COUNTS} != counts


def test_fails_without_the_program():
    """In a directory holding only the benchmark, it exits nonzero and
    prints no result."""
    work_base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_base, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=work_base)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(
            HERE,
            os.path.join(bare, "perfbench"),
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "rt-closed", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_base)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
