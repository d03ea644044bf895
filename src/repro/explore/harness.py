"""One explored run: build, drive, oracle, fingerprint.

:func:`run_once` is the explorer's unit of work — a fully wired
system with the choice-driven nemesis installed, a small contended
workload, and the invariant battery as the oracle over the terminal
state.  Everything nondeterministic flows through the chooser, so
``run_once(spec, TraceChooser(trace))`` is a *replay*: identical
choices, identical history, identical SHA-256 fingerprint.
"""

from __future__ import annotations

import hashlib
import shutil
import tempfile
from dataclasses import asdict, dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.coordinator import CoordinatorTimeouts
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.explore.mutants import get_mutant
from repro.explore.nemesis import (
    ChoiceAbortInjector,
    ChoiceCrashInjector,
    ChoiceNetwork,
    FaultBudget,
)
from repro.explore.trace import ChoicePoint
from repro.history.invariants import Violation
from repro.sim.driver import drive
from repro.sim.failures import invariant_battery, wal_battery
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


@dataclass(frozen=True)
class ExploreSpec:
    """One point in the exploration config matrix, workload included.

    The workload is deliberately small and contended (few keys, hot
    set, mostly updates, overlapping arrivals): exploration wins by
    trying many interleavings of a dense conflict structure, not by
    pushing volume through a sparse one.
    """

    seed: int = 0
    sites: Tuple[str, ...] = ("a", "b")
    n_global: int = 6
    n_local: int = 2
    #: Config matrix dimensions (certifier engine × durability ×
    #: federation fan-out).
    certifier_engine: str = "naive"
    durability: bool = False
    n_coordinators: int = 1
    method: str = "2cm"
    #: Name of a seeded regression to patch in (None = healthy system).
    mutant: Optional[str] = None
    #: Fault budgets for the choice-driven nemesis.
    budget: FaultBudget = field(default_factory=FaultBudget)
    #: Workload contention knobs.
    keys_per_site: int = 4
    hot_keys: int = 2
    hot_access_fraction: float = 0.7
    update_fraction: float = 0.8
    mean_interarrival: float = 25.0
    #: Safety bounds: simulated-time horizon and event cap per run.
    horizon: float = 20_000.0
    max_events: int = 200_000

    def describe(self) -> str:
        parts = [
            f"seed={self.seed}",
            f"engine={self.certifier_engine}",
            f"durability={'on' if self.durability else 'off'}",
            f"coordinators={self.n_coordinators}",
        ]
        if self.mutant:
            parts.append(f"mutant={self.mutant}")
        return " ".join(parts)

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["sites"] = list(self.sites)
        return data

    @staticmethod
    def from_dict(data: Dict[str, object]) -> "ExploreSpec":
        budget_data = dict(data.get("budget", {}))
        known = {f for f in ExploreSpec.__dataclass_fields__}
        kwargs = {k: v for k, v in data.items() if k in known and k != "budget"}
        kwargs["sites"] = tuple(kwargs.get("sites", ("a", "b")))
        return ExploreSpec(budget=FaultBudget(**budget_data), **kwargs)


@dataclass
class RunResult:
    """Everything one explored run produced."""

    spec: ExploreSpec
    points: List[ChoicePoint]
    trace: List[int]
    violations: List[Violation]
    fingerprint: str
    coverage: FrozenSet[str]
    committed: int = 0
    aborted: int = 0
    sim_time: float = 0.0
    pending: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def violation_kinds(self) -> Set[str]:
        return {v.kind for v in self.violations}


def build_system(spec: ExploreSpec, durability_root: Optional[str] = None):
    """Wire one system with the choice-driven nemesis installed."""
    durability = None
    if spec.durability:
        if durability_root is None:
            raise ValueError("durability spec needs a durability_root")
        from repro.durability.config import DurabilityConfig

        durability = DurabilityConfig(root=durability_root)

    budget = replace(spec.budget)

    def network_factory(kernel, config):
        return ChoiceNetwork(
            kernel,
            budget=budget,
            latency=config.latency,
            seed=config.seed,
        )

    system = MultidatabaseSystem(
        SystemConfig(
            sites=spec.sites,
            n_coordinators=spec.n_coordinators,
            method=spec.method,
            seed=spec.seed,
            certifier_engine=spec.certifier_engine,
            durability=durability,
            coordinator_timeouts=CoordinatorTimeouts(
                result_timeout=400.0,
                vote_timeout=400.0,
                ack_timeout=120.0,
                max_resends=50,
            ),
            network_factory=network_factory,
        )
    )
    ChoiceCrashInjector(system, budget)
    ChoiceAbortInjector(system, budget)
    if spec.mutant is not None:
        get_mutant(spec.mutant).apply(system)
    return system


def run_fingerprint(system, outcomes: Dict) -> str:
    """SHA-256 over the rendered history, per-txn outcomes and the
    quiescence time — byte-identical iff the runs are."""
    digest = hashlib.sha256()
    digest.update(system.history.render().encode())
    for txn in sorted(outcomes, key=str):
        outcome = outcomes[txn]
        line = f"{txn}={'committed' if outcome.committed else 'aborted'}"
        if not outcome.committed and outcome.reason is not None:
            line += f"({outcome.reason})"
        digest.update(line.encode())
    digest.update(f"{system.kernel.now:.6f}".encode())
    return digest.hexdigest()


def _coverage_of(system, outcomes, violations) -> FrozenSet[str]:
    """Bucketized protocol-state features for the coverage strategy."""
    from repro.sim.metrics import collect_metrics

    metrics = collect_metrics(system)
    features: Set[str] = set()
    for reason in metrics.aborts_by_reason:
        features.add(f"abort:{reason}")
    for reason in metrics.refusals_by_reason:
        features.add(f"refuse:{reason}")
    for name in (
        "resubmissions",
        "unilateral_aborts",
        "commit_delays",
        "lock_timeouts",
        "messages_lost",
        "messages_duplicated",
        "messages_spiked",
        "partition_drops",
        "agent_crashes",
        "agent_restarts",
        "dead_letters",
    ):
        value = getattr(metrics, name)
        if value:
            # Log-bucketed so "more of the same" is not novelty.
            bucket = value.bit_length() if isinstance(value, int) else 1
            features.add(f"{name}:{bucket}")
    committed = sum(1 for o in outcomes.values() if o.committed)
    features.add(f"committed:{committed}/{len(outcomes)}")
    for violation in violations:
        features.add(f"violation:{violation.kind}")
    return frozenset(features)


def run_once(spec: ExploreSpec, chooser) -> RunResult:
    """Build, explore, oracle — one deterministic run under ``chooser``."""
    durability_root = None
    if spec.durability:
        durability_root = tempfile.mkdtemp(prefix="repro-explore-")
    try:
        system = build_system(spec, durability_root)
        system.kernel.chooser = chooser

        workload = WorkloadGenerator(
            WorkloadConfig(
                sites=spec.sites,
                n_global=spec.n_global,
                n_local=spec.n_local,
                keys_per_site=spec.keys_per_site,
                hot_keys=spec.hot_keys,
                hot_access_fraction=spec.hot_access_fraction,
                update_fraction=spec.update_fraction,
                sites_min=len(spec.sites),
                sites_max=len(spec.sites),
                mean_interarrival=spec.mean_interarrival,
                seed=spec.seed,
            )
        ).generate()
        run = drive(system, workload, spec.horizon, max_events=spec.max_events)
        violations = run.death_violations() + run.drain_violations()
        violations.extend(invariant_battery(system, include_ci=True))
        system.kernel.chooser = None
        fingerprint = run_fingerprint(system, run.global_outcomes)
        coverage = _coverage_of(system, run.global_outcomes, violations)
        system.close()
        if durability_root is not None:
            violations.extend(wal_battery(durability_root))

        trace_len = len(chooser.points)
        deviations = [p.index for p in chooser.deviations()]
        violations = [
            v.with_context(trace_length=trace_len, deviations=deviations)
            for v in violations
        ]
        return RunResult(
            spec=spec,
            points=list(chooser.points),
            trace=chooser.trace,
            violations=violations,
            fingerprint=fingerprint,
            coverage=coverage,
            committed=len(run.committed_globals),
            aborted=len(run.aborted_globals),
            sim_time=run.finished_at,
            pending=run.pending,
        )
    finally:
        if durability_root is not None:
            shutil.rmtree(durability_root, ignore_errors=True)


def matrix(base: ExploreSpec) -> List[ExploreSpec]:
    """The config matrix: certifier engine × durability × federation."""
    specs = []
    for engine in ("naive", "indexed"):
        for durability in (False, True):
            for n_coordinators in (1, 2):
                specs.append(
                    replace(
                        base,
                        certifier_engine=engine,
                        durability=durability,
                        n_coordinators=n_coordinators,
                    )
                )
    return specs
