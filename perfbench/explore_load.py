"""The ``explore-random`` workload: seeded random walks of the explorer.

Batches of ``explore_random`` over the default ``ExploreSpec`` (2 sites,
6 globals, 2 locals, healable fault budget) with a fixed run count per
batch.  Every run builds a small system, drives it through the kernel's
chooser path to quiescence and runs the oracle; a single violation
fails the benchmark.  Thousands of tiny histories make the fixed
per-call costs of ``history`` and system construction dominate.

The untraced run probes the machine's speed before every batch and
reports its times at the reference speed (``common.MachineSpeed``).
Timing comes from outside the explorer: the ``on_run`` callback marks
run boundaries, and in the traced run the harness's ``build_system``,
``MultidatabaseSystem.run`` and ``invariant_battery`` are wrapped with
timers (and restored afterwards).
"""

from __future__ import annotations

import contextlib
import gc
import time
from typing import Dict, List

from common import (
    TRACE_METRICS,
    MachineSpeed,
    Outcome,
    median,
    per,
    percentile,
    tail_quantile,
)
from repro.core.dtm import MultidatabaseSystem
from repro.explore import ExploreSpec, explore_random
from repro.explore import harness

RUNS_PER_BATCH = 50
MIN_BATCHES = 2
TRACED_RUNS = 200
#: Per-layer metrics the traced run measures.
LAYER_METRICS = TRACE_METRICS + (
    "explore.build_ms_per_run",
    "explore.sim_ms_per_run",
    "explore.oracle_ms_per_run",
    "kernel.choice_points_per_run",
)
#: ``setup_s``: before every batch, a group of builds is timed (one
#: build takes about 0.1 ms, too short to time alone).  The figure is the
#: median over the groups of the mean time per build, so, like the
#: throughput, it samples the machine over the whole window.
SETUP_BUILDS_PER_GROUP = 50


@contextlib.contextmanager
def timing(owner, attr: str, sink: List[float]):
    """Replace ``owner.attr`` by a wrapper appending each call's seconds."""
    original = getattr(owner, attr)

    def wrapper(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)

    setattr(owner, attr, wrapper)
    try:
        yield sink
    finally:
        setattr(owner, attr, original)


def batch(spec: ExploreSpec, seed: int, runs: int, outcome: Outcome) -> dict:
    """One ``explore_random`` call; per-run wall times and choice points."""
    marks = [time.perf_counter()]
    points: List[int] = []
    unfinished: List[int] = []

    def on_run(result) -> None:
        marks.append(time.perf_counter())
        points.append(len(result.points))
        unfinished.append(spec.n_global - result.committed)

    c0 = time.process_time()
    exploration = explore_random(spec, seed=seed, max_runs=runs, on_run=on_run)
    cpu_s = time.process_time() - c0
    outcome.attempted += exploration.runs
    for failure in exploration.failures:
        outcome.violations.append(
            f"seed {seed}: {sorted(failure.violation_kinds())} "
            f"after {len(failure.trace)} choices"
        )
    if exploration.runs != runs and not exploration.failures:
        outcome.failed += runs - exploration.runs
        outcome.violations.append(f"seed {seed}: {exploration.runs}/{runs} runs")
    wall = [b - a for a, b in zip(marks, marks[1:])]
    return {
        "wall": wall,
        "cpu_s": cpu_s,
        "runs": exploration.runs,
        "points": points,
        "unfinished": sum(unfinished),
    }


def setup_group(spec: ExploreSpec) -> float:
    """Mean seconds to build one explored system from the spec, over
    :data:`SETUP_BUILDS_PER_GROUP` builds from a freshly collected heap."""
    gc.collect()
    elapsed = 0.0
    for _ in range(SETUP_BUILDS_PER_GROUP):
        t0 = time.perf_counter()
        system = harness.build_system(spec)
        elapsed += time.perf_counter() - t0
        system.close()
    return elapsed / SETUP_BUILDS_PER_GROUP


def run(seed: int, seconds: float, trace: bool, _ctx) -> Outcome:
    outcome = Outcome()
    spec = ExploreSpec()
    # Warm-up batch, not counted.
    batch(spec, seed * 1009 + 999_999, 10, Outcome())
    if trace:
        return _traced(spec, seed, outcome)

    setup: List[float] = []
    batches: List[dict] = []
    speed = MachineSpeed()
    started = time.perf_counter()
    while len(batches) < MIN_BATCHES or time.perf_counter() - started < seconds:
        speed.probe()
        setup.append(setup_group(spec))
        batches.append(batch(spec, seed * 1009 + len(batches), RUNS_PER_BATCH, outcome))
    wall_ms = [w * 1000.0 for b in batches for w in b["wall"]]
    measured = {
        "throughput_per_s": median([b["runs"] / sum(b["wall"]) for b in batches]),
        "latency_p50_ms": percentile(wall_ms, 0.5),
        "latency_tail_ms": percentile(wall_ms, tail_quantile(len(wall_ms))),
        "cpu_ms_per_op": median([b["cpu_s"] * 1000.0 / b["runs"] for b in batches]),
        "setup_s": median(setup),
    }
    outcome.metrics = speed.normalize(measured, rates=("throughput_per_s",))
    outcome.notes.update(
        runs=len(wall_ms),
        batches=len(batches),
        latency_p99_ms=percentile(wall_ms, 0.99),
        machine_factor=speed.factor(),
        measured=measured,
    )
    return outcome


def _traced(spec: ExploreSpec, seed: int, outcome: Outcome) -> Outcome:
    # The same walks twice, untraced and with the layer timers in; which
    # side goes first alternates chunk by chunk, so neither gains from
    # running second.
    spans: Dict[str, List[float]] = {"build": [], "sim": [], "oracle": []}
    untraced_s = traced_s = 0.0
    runs = points = unfinished = 0
    for chunk in range(TRACED_RUNS // RUNS_PER_BATCH):
        walk_seed = seed * 1009 + 500_000 + chunk
        for traced_side in (chunk % 2 == 1, chunk % 2 == 0):
            if not traced_side:
                untraced_s += sum(batch(spec, walk_seed, RUNS_PER_BATCH, outcome)["wall"])
                continue
            with timing(harness, "build_system", spans["build"]), timing(
                MultidatabaseSystem, "run", spans["sim"]
            ), timing(harness, "invariant_battery", spans["oracle"]):
                traced = batch(spec, walk_seed, RUNS_PER_BATCH, outcome)
            traced_s += sum(traced["wall"])
            runs += traced["runs"]
            points += sum(traced["points"])
            unfinished += traced["unfinished"]
    metrics = {
        f"explore.{name}_ms_per_run": per(sum(values) * 1000.0, runs)
        for name, values in spans.items()
    }
    metrics.update(
        {
            "kernel.choice_points_per_run": per(points, runs),
            "failed_ratio": per(unfinished, runs * spec.n_global),
            "trace.overhead_ms_per_op": per((traced_s - untraced_s) * 1000.0, runs),
            "trace.overhead_ratio": per(traced_s - untraced_s, untraced_s),
        }
    )
    outcome.metrics = metrics
    outcome.notes.update(traced_runs=runs)
    return outcome
