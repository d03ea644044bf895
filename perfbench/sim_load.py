"""The ``sim-unilateral`` workload: the paper's 2CM method, in process.

Each *history* is one seeded simulation: ``WorkloadGenerator`` makes 200
global transactions over sites a, b, c (up to 2 sites each, 4 tables of
32 keys, 60% updates), driven through 2 coordinators by the 2PC Agent
method while ``RandomFailureInjector`` unilaterally aborts 5% of the
prepared subtransactions, so resubmission and certification refusals
happen.  The run goes to quiescence, then ``invariant_battery(
include_ci=True)`` must return nothing.

The untraced run repeats histories (new seed each) for the whole
window, probing the machine's speed before each, and reports its times
at the reference speed (``common.MachineSpeed``).  The traced run profiles a fixed set of histories, so its
counts repeat exactly for a given seed, and runs each of them once
untraced as well: the difference is the tracing overhead.
"""

from __future__ import annotations

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
from layers import LayerProfile
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.committed import committed_projection
from repro.history.distortion import find_distortions
from repro.history.graphs import find_cycle, serialization_graph
from repro.history.invariants import (
    check_atomic_commitment,
    check_correctness_invariant,
)
from repro.history.rigor import check_rigorous
from repro.history.viewser import check_view_serializable
from repro.sim.driver import run_schedule
from repro.sim.failures import RandomFailureInjector, invariant_battery
from repro.sim.metrics import collect_metrics
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

SITES = ("a", "b", "c")
N_GLOBALS = 200
UNILATERAL_ABORTS = 0.05
MIN_HISTORIES = 3
TRACED_HISTORIES = 4
#: Layer (as ``layers.LAYER_OF`` names it) -> its self-time metric.
SELF_TIME_METRICS = {
    "kernel": "kernel.self_ms_per_txn",
    "net": "net.self_ms_per_txn",
    "ldbs": "ldbs.self_ms_per_txn",
    "core.certifier": "core.certifier.self_ms_per_txn",
    "core.agent": "core.agent.self_ms_per_txn",
    "core.coordinator": "core.coordinator.self_ms_per_txn",
    "history.record": "history.record_self_ms_per_txn",
}
#: The oracle's checkers, timed one by one in the traced run.
CHECKERS = ("projection", "viewser", "distortion", "rigor", "sg", "ci", "atomic")
#: Per-layer metrics the traced run measures.
LAYER_METRICS = (
    TRACE_METRICS
    + (
        "kernel.events_per_txn",
        "kernel.schedule_calls_per_txn",
        "net.messages_per_txn",
        "ldbs.lock_requests_per_txn",
        "ldbs.lock_waits_per_txn",
        "core.certifier.prepare_checks_per_txn",
        "core.certifier.commit_checks_per_txn",
        "core.certifier.prepare_refusal_ratio",
        "core.agent.resubmissions_per_txn",
    )
    + tuple(SELF_TIME_METRICS.values())
    + tuple(f"history.{name}_ms" for name in CHECKERS)
)


def history_seed(seed: int, index: int) -> int:
    return seed * 1_000_003 + index


def build(history: int):
    """The system (with its failure injector) and the schedule."""
    system = MultidatabaseSystem(
        SystemConfig(sites=SITES, n_coordinators=2, method="2cm", seed=history)
    )
    RandomFailureInjector(system, probability=UNILATERAL_ABORTS, seed=history)
    schedule = WorkloadGenerator(
        WorkloadConfig(
            sites=SITES,
            n_global=N_GLOBALS,
            n_tables=4,
            keys_per_site=32,
            update_fraction=0.6,
            sites_max=2,
            seed=history,
        )
    ).generate()
    return system, schedule


def simulate(history: int, profile: LayerProfile = None) -> dict:
    # The previous history's garbage is not this history's cost: collect
    # it before the clock starts, so no full collection lands inside.
    gc.collect()
    t0 = time.perf_counter()
    system, schedule = build(history)
    t1 = time.perf_counter()
    c1 = time.process_time()
    if profile is not None:
        with profile:
            result = run_schedule(system, schedule)
    else:
        result = run_schedule(system, schedule)
    t2 = time.perf_counter()
    c2 = time.process_time()
    outcomes = result.global_outcomes
    return {
        "system": system,
        "setup_s": t1 - t0,
        "sim_s": t2 - t1,
        "cpu_s": c2 - c1,
        "submitted": len(schedule.globals_),
        "committed": sum(1 for o in outcomes.values() if o.committed),
        "aborted": sum(1 for o in outcomes.values() if not o.committed),
        "missing": len(schedule.globals_) - len(outcomes),
    }


def verify(run: dict) -> float:
    t0 = time.perf_counter()
    run["violations"] = invariant_battery(run["system"], include_ci=True)
    return time.perf_counter() - t0


def checker_times(history) -> Dict[str, float]:
    """The oracle's checkers one by one (seconds), as ``audit`` and
    ``invariant_battery`` call them."""
    times: Dict[str, float] = {}

    def clock(name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        value = fn(*args, **kwargs)
        times[name] = time.perf_counter() - t0
        return value

    projection = clock("projection", committed_projection, history)
    clock("viewser", check_view_serializable, projection, max_txns=9)
    clock("distortion", find_distortions, projection)
    clock("rigor", check_rigorous, history.ops)
    clock("sg", lambda: find_cycle(serialization_graph(projection.data_ops())))
    clock("ci", check_correctness_invariant, history)
    clock("atomic", check_atomic_commitment, history)
    return times


def _fold(outcome: Outcome, run: dict) -> None:
    outcome.attempted += run["submitted"]
    outcome.failed += run["missing"]
    outcome.violations.extend(str(v) for v in run.get("violations", ()))
    if run["missing"]:
        outcome.violations.append(f"{run['missing']} globals without an outcome")


def run(seed: int, seconds: float, trace: bool, _ctx) -> Outcome:
    outcome = Outcome()
    # Warm-up: one history, not counted (lazy imports, first-call costs).
    simulate(history_seed(seed, 999_999))
    if trace:
        return _traced(seed, outcome)

    runs: List[dict] = []
    speed = MachineSpeed()
    started = time.perf_counter()
    index = 0
    while len(runs) < MIN_HISTORIES or time.perf_counter() - started < seconds:
        speed.probe()
        run = simulate(history_seed(seed, index))
        run["verify_s"] = verify(run)
        run.pop("system")
        _fold(outcome, run)
        runs.append(run)
        index += 1
    # One history's latency is its time to a verdict: simulate, then check.
    verdict_ms = [(r["sim_s"] + r["verify_s"]) * 1000.0 for r in runs]
    measured = {
        "throughput_per_s": median([r["submitted"] / r["sim_s"] for r in runs]),
        "latency_p50_ms": median(verdict_ms),
        "latency_tail_ms": percentile(verdict_ms, tail_quantile(len(runs))),
        "cpu_ms_per_op": median([r["cpu_s"] * 1000.0 / r["submitted"] for r in runs]),
        "setup_s": median([r["setup_s"] for r in runs]),
    }
    outcome.metrics = speed.normalize(measured, rates=("throughput_per_s",))
    outcome.notes.update(
        histories=len(runs),
        globals_per_history=N_GLOBALS,
        aborted=sum(r["aborted"] for r in runs),
        tail_quantile=tail_quantile(len(runs)),
        machine_factor=speed.factor(),
        measured=measured,
    )
    return outcome


def _traced(seed: int, outcome: Outcome) -> Outcome:
    profile = LayerProfile()
    untraced_s = traced_s = 0.0
    submitted = aborted = 0
    counts = dict.fromkeys(
        ("events", "messages", "lock_waits", "resubmissions", "prepare_checks", "refusals"),
        0,
    )
    checkers: Dict[str, List[float]] = {}
    for index in range(TRACED_HISTORIES):
        history = history_seed(seed, 500_000 + index)
        # The same history untraced and profiled, in alternating order.
        if index % 2 == 0:
            untraced_s += simulate(history)["sim_s"]
        run = simulate(history, profile)
        traced_s += run["sim_s"]
        if index % 2 == 1:
            untraced_s += simulate(history)["sim_s"]
        verify(run)
        _fold(outcome, run)
        submitted += run["submitted"]
        aborted += run["aborted"] + run["missing"]
        system = run["system"]
        metrics = collect_metrics(system)
        counts["events"] += system.kernel.events_fired
        counts["messages"] += metrics.messages
        counts["lock_waits"] += metrics.lock_waits
        counts["resubmissions"] += metrics.resubmissions
        counts["prepare_checks"] += metrics.prepare_checks
        counts["refusals"] += sum(metrics.refusals_by_reason.values())
        for name, seconds in checker_times(system.history).items():
            checkers.setdefault(name, []).append(seconds)

    self_s = profile.self_seconds()
    layers = {
        "kernel.events_per_txn": per(counts["events"], submitted),
        "kernel.schedule_calls_per_txn": per(
            profile.calls("kernel/events.py", "schedule")
            + profile.calls("kernel/events.py", "schedule_at"),
            submitted,
        ),
        "net.messages_per_txn": per(counts["messages"], submitted),
        "ldbs.lock_requests_per_txn": per(
            profile.calls("ldbs/locks.py", "acquire"), submitted
        ),
        "ldbs.lock_waits_per_txn": per(counts["lock_waits"], submitted),
        "core.certifier.prepare_checks_per_txn": per(counts["prepare_checks"], submitted),
        "core.certifier.commit_checks_per_txn": per(
            profile.calls("core/certifier.py", "certify_commit"), submitted
        ),
        "core.certifier.prepare_refusal_ratio": per(
            counts["refusals"], counts["prepare_checks"]
        ),
        "core.agent.resubmissions_per_txn": per(counts["resubmissions"], submitted),
        "failed_ratio": per(aborted, submitted),
        "trace.overhead_ms_per_op": per((traced_s - untraced_s) * 1000.0, submitted),
        "trace.overhead_ratio": per(traced_s - untraced_s, untraced_s),
    }
    for layer, name in SELF_TIME_METRICS.items():
        layers[name] = per(self_s.get(layer, 0.0) * 1000.0, submitted)
    for name, values in checkers.items():
        layers[f"history.{name}_ms"] = median(values) * 1000.0
    outcome.metrics = layers
    outcome.notes.update(
        traced_histories=TRACED_HISTORIES,
        self_ms_by_layer={k: round(v * 1000.0, 3) for k, v in sorted(self_s.items())},
    )
    return outcome
