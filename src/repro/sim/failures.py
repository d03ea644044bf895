"""Unilateral-abort injection (the paper's failure model).

"Preserving D- and E-autonomy of an LDBS means that it can roll back a
single transaction at any time ... even after all the database commands
have been executed.  The reasons are various implementation-dependent
issues, like the log buffer overflow (INGRES), or unexpected system
bugs."

Two styles of injection:

* **scripted** — the paper's worked histories need a specific abort at
  a specific moment (e.g. H1's ``A^a_10`` *after* the global commit
  decision ``C_1``).  :func:`inject_abort_after_global_commit` and
  :func:`inject_abort_after_prepare` watch the history recorder and
  fire once, deterministically;
* **randomized** — :class:`RandomFailureInjector` flips a seeded coin
  whenever a subtransaction enters the prepared state and schedules an
  abort a random delay later, bounded per subtransaction (the TW
  assumption: after a fixed number of resubmissions the subtransaction
  can commit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigError
from repro.common.ids import TxnId
from repro.core.agent import CRASH_POINTS, AgentPhase
from repro.core.coordinator import CoordinatorTimeouts
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.invariants import (
    Violation,
    check_atomic_commitment,
    check_correctness_invariant,
)
from repro.history.model import OpKind, Operation
from repro.net.failure_detector import FailureDetectorConfig
from repro.net.faults import FaultPlan, LossBurst, Partition
from repro.net.reliable import ReliableConfig
from repro.sim.driver import DrillResult, drive


def abort_current_incarnation(
    system: MultidatabaseSystem, txn: TxnId, site: str
) -> bool:
    """Unilaterally abort whatever incarnation of ``txn`` currently
    exists at ``site`` (False when it already terminated)."""
    incarnation = system.agent(site).current_incarnation(txn)
    if incarnation is None:
        return False
    return system.ltm(site).unilaterally_abort(incarnation)


def inject_abort_after_global_commit(
    system: MultidatabaseSystem, txn: TxnId, site: str, delay: float = 1.0
) -> None:
    """Arrange ``A^site`` of ``txn`` shortly after ``C_txn`` is recorded.

    This is the H1/H2 pattern: the Coordinator has durably decided to
    commit, every participant voted READY, and *then* the LDBS throws
    the prepared subtransaction away — the exact window the 2PC Agent's
    resubmission exists for.
    """

    def observer(op: Operation) -> None:
        if op.kind is OpKind.GLOBAL_COMMIT and op.txn == txn:
            system.kernel.schedule(
                delay, lambda: abort_current_incarnation(system, txn, site)
            )

    system.history.subscribe(observer)


def inject_abort_after_prepare(
    system: MultidatabaseSystem, txn: TxnId, site: str, delay: float = 1.0
) -> None:
    """Arrange a unilateral abort shortly after ``P^site_txn``."""

    def observer(op: Operation) -> None:
        if op.kind is OpKind.PREPARE and op.txn == txn and op.site == site:
            system.kernel.schedule(
                delay, lambda: abort_current_incarnation(system, txn, site)
            )

    system.history.subscribe(observer)


@dataclass
class RandomFailureInjector:
    """Seeded random unilateral aborts of prepared subtransactions.

    ``probability`` is the chance that one (txn, site) prepared
    subtransaction suffers an abort; when it does, the abort lands a
    uniform random delay in ``[0, max_delay]`` after the prepare.  At
    most ``max_aborts_per_subtxn`` aborts hit any one (txn, site) pair,
    honouring the paper's TW (trustworthiness) assumption.
    """

    system: MultidatabaseSystem
    probability: float
    max_delay: float = 40.0
    max_aborts_per_subtxn: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self._aborts: Dict[Tuple[TxnId, str], int] = {}
        self.injected = 0
        #: Every scheduling decision, in decision order — the abort
        #: schedule.  Two injectors with the same seed over the same
        #: workload produce identical logs (determinism contract).
        self.schedule_log: List[Tuple[TxnId, str, float]] = []
        self.system.history.subscribe(self._observe)

    def _observe(self, op: Operation) -> None:
        if op.kind is not OpKind.PREPARE or op.site is None:
            return
        self._maybe_schedule(op.txn, op.site)

    def _maybe_schedule(self, txn: TxnId, site: str) -> None:
        key = (txn, site)
        if self._aborts.get(key, 0) >= self.max_aborts_per_subtxn:
            return
        if self._rng.random() >= self.probability:
            return
        delay = self._rng.uniform(0.0, self.max_delay)
        self.schedule_log.append((txn, site, delay))
        self.system.kernel.schedule(delay, lambda: self._fire(key))

    def _fire(self, key: Tuple[TxnId, str]) -> None:
        txn, site = key
        if abort_current_incarnation(self.system, txn, site):
            self._aborts[key] = self._aborts.get(key, 0) + 1
            self.injected += 1
            # The resubmitted incarnation may fail again, up to the cap.
            self._maybe_schedule(txn, site)


def inject_site_crash(
    system: MultidatabaseSystem, site: str, at: float
) -> None:
    """Crash ``site`` at simulated time ``at`` (collective abort).

    Every transaction active at the LDBS — global subtransactions in
    any phase and local transactions alike — is unilaterally aborted;
    prepared global subtransactions are later repaired by their agents'
    resubmission machinery.
    """
    system.kernel.schedule_at(at, lambda: system.ltm(site).crash())


# ----------------------------------------------------------------------
# Agent crash injection (the durability subsystem's failure mode)
# ----------------------------------------------------------------------


@dataclass
class AgentCrashInjector:
    """Kill one site's 2PC Agent at a scripted protocol point.

    Unlike :func:`inject_site_crash` (the *LDBS* dies and the agent
    repairs it by resubmission), this kills the *agent process itself*
    — the failure the durable Agent log exists for.  ``point`` is one
    of :data:`repro.core.agent.CRASH_POINTS`; the probe fires on the
    first transaction to reach it (or on ``txn`` specifically) and the
    agent restarts from its log ``restart_after`` later
    (``None`` = stay down until :meth:`recover` is called).
    """

    system: MultidatabaseSystem
    site: str
    point: str
    txn: Optional[TxnId] = None
    restart_after: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.point not in CRASH_POINTS:
            raise ConfigError(
                f"unknown crash point {self.point!r}; pick one of {CRASH_POINTS}"
            )
        #: ``(time, point, txn)`` once the probe has fired.
        self.fired: Optional[Tuple[float, str, TxnId]] = None
        #: Transactions the restart recovered (None until it happened).
        self.recovered_txns: Optional[int] = None
        self.system.agent(self.site).crash_probe = self._probe

    def _probe(self, point: str, txn: TxnId) -> bool:
        if self.fired is not None:
            return False
        if point != self.point:
            return False
        if self.txn is not None and txn != self.txn:
            return False
        self.fired = (self.system.kernel.now, point, txn)
        if self.restart_after is not None:
            self.system.kernel.schedule(self.restart_after, self.recover)
        return True

    def recover(self) -> int:
        """Restart the crashed agent now (re-opens the durable log)."""
        self.recovered_txns = self.system.recover_agent(self.site)
        return self.recovered_txns


@dataclass
class RandomAgentCrashInjector:
    """Seeded random agent kills at protocol points, with auto-restart.

    Every time any agent passes a crash point, a seeded coin decides
    whether the process dies there; a dead agent restarts from its log
    a uniform random downtime later.  At most ``max_crashes_per_site``
    kills hit one site, bounding the injected chaos the way the TW
    assumption bounds unilateral aborts.  Same seed ⇒ identical crash
    schedule (``crash_log``).
    """

    system: MultidatabaseSystem
    probability: float
    min_downtime: float = 5.0
    max_downtime: float = 60.0
    max_crashes_per_site: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)
        self.crashes: Dict[str, int] = {}
        #: ``(time, site, point, txn)`` per kill, in kill order.
        self.crash_log: List[Tuple[float, str, str, TxnId]] = []
        for site in self.system.config.sites:
            self.system.agent(site).crash_probe = self._probe_for(site)

    def _probe_for(self, site: str):
        def probe(point: str, txn: TxnId) -> bool:
            if self.crashes.get(site, 0) >= self.max_crashes_per_site:
                return False
            if self._rng.random() >= self.probability:
                return False
            self.crashes[site] = self.crashes.get(site, 0) + 1
            self.crash_log.append(
                (self.system.kernel.now, site, point, txn)
            )
            downtime = self._rng.uniform(self.min_downtime, self.max_downtime)
            self.system.kernel.schedule(
                downtime, lambda: self.system.recover_agent(site)
            )
            return True

        return probe


# ----------------------------------------------------------------------
# The chaos nemesis: one seeded schedule composing every fault source
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosConfig:
    """One seeded nemesis run: faults, workload, and the heal boundary.

    The run has two phases.  During ``[0, duration)`` the nemesis is
    active: the wire loses/duplicates/delays messages, partitions open
    and close, and agent processes are killed at protocol crash points.
    At ``duration`` everything heals — the fault plan's ``heal_at``
    cuts the wire faults off, crashed agents are recovered — and the
    system drains to quiescence over a perfect transport, after which
    the invariant battery runs.
    """

    seed: int = 0
    duration: float = 3_000.0
    sites: Tuple[str, ...] = ("a", "b", "c")
    n_global: int = 30
    n_local: int = 6
    #: Baseline wire faults (active until ``duration``).
    loss: float = 0.02
    duplication: float = 0.04
    spike_probability: float = 0.03
    spike_delay: float = 60.0
    #: Timed partitions: each isolates one random site for a random
    #: window inside the nemesis phase.
    n_partitions: int = 2
    partition_min: float = 150.0
    partition_max: float = 400.0
    #: Loss bursts layered on top of the baseline loss.
    n_bursts: int = 1
    burst_loss: float = 0.35
    burst_duration: float = 250.0
    #: Agent process kills at protocol crash points (PR 2 machinery).
    crash_probability: float = 0.03
    max_crashes_per_site: int = 1
    #: Extra simulated time allowed for the post-heal drain.
    drain: float = 30_000.0
    #: Optional WAL root; when set the run uses real on-disk logs and
    #: the battery includes a WAL scan.
    durability_root: Optional[str] = None


def build_fault_plan(config: ChaosConfig) -> FaultPlan:
    """Derive the seeded wire-fault schedule from a :class:`ChaosConfig`."""
    rng = random.Random(config.seed * 7919 + 17)
    window_start = 0.1 * config.duration
    window_end = 0.9 * config.duration
    partitions = []
    for _ in range(config.n_partitions):
        site = rng.choice(config.sites)
        length = rng.uniform(config.partition_min, config.partition_max)
        start = rng.uniform(window_start, max(window_start, window_end - length))
        partitions.append(
            Partition(
                isolated=frozenset({site}),
                start=start,
                end=min(start + length, config.duration),
            )
        )
    bursts = []
    for _ in range(config.n_bursts):
        start = rng.uniform(
            window_start, max(window_start, window_end - config.burst_duration)
        )
        bursts.append(
            LossBurst(
                start=start,
                end=min(start + config.burst_duration, config.duration),
                loss=config.burst_loss,
            )
        )
    return FaultPlan(
        loss=config.loss,
        duplication=config.duplication,
        spike_probability=config.spike_probability,
        spike_delay=config.spike_delay,
        partitions=tuple(sorted(partitions, key=lambda p: p.start)),
        bursts=tuple(sorted(bursts, key=lambda b: b.start)),
        heal_at=config.duration,
    )


def invariant_battery(
    system: MultidatabaseSystem,
    durability_root: Optional[str] = None,
    include_ci: bool = False,
) -> List[Violation]:
    """The full post-run oracle, shared by chaos, overload and explore.

    Runs over a (hopefully quiesced) system: atomic commitment across
    sites, the orphaned-PREPARED scan, the serializability/rigor audit,
    and — when the run used real WALs — a recoverability scan of every
    surviving log directory.  ``include_ci`` adds the paper's
    Correctness Invariant checker; the schedule explorer wants it, the
    chaos drills historically asserted it separately.
    """
    from repro.sim.metrics import audit

    violations: List[Violation] = []

    for v in check_atomic_commitment(system.history):
        violations.append(v.to_violation())

    if include_ci:
        for ci in check_correctness_invariant(system.history):
            violations.append(ci.to_violation())

    for site in system.config.sites:
        agent = system.agent(site)
        orphans = sorted(
            str(state.txn)
            for state in agent._txns.values()
            if state.phase is AgentPhase.PREPARED
        )
        if orphans:
            violations.append(
                Violation(
                    kind="orphaned-prepared",
                    detail=f"orphaned prepared subtransactions at {site}: {orphans}",
                    txns=tuple(orphans),
                    sites=(site,),
                )
            )

    report = audit(system)
    if report.view_serializability.serializable is False:
        violations.append(
            Violation(
                kind="audit.viewser",
                detail=(
                    f"C(H) not view serializable: "
                    f"{report.view_serializability.reason}"
                ),
            )
        )
    if report.rigor_violations:
        violations.append(
            Violation(
                kind="audit.rigor",
                detail=f"{report.rigor_violations} rigor violations in local histories",
                context={"count": report.rigor_violations},
            )
        )
    if report.distortions.has_global_distortion:
        violations.append(
            Violation(
                kind="audit.distortion",
                detail="global view distortion detected",
            )
        )

    if durability_root is not None:
        violations.extend(wal_battery(durability_root))
    return violations


def wal_battery(durability_root: str) -> List[Violation]:
    """Recoverability scan over every surviving WAL directory.

    Separate from :func:`invariant_battery` because it must run *after*
    ``system.close()`` — open segment files are not scannable state.
    """
    from repro.durability.cli import wal_directories
    from repro.durability.recovery import scan_wal

    violations: List[Violation] = []
    for directory in wal_directories(durability_root):
        report_wal = scan_wal(directory)
        if not report_wal.clean:
            violations.append(
                Violation(
                    kind="wal",
                    detail=(
                        f"WAL not recoverable: {directory}: "
                        f"{report_wal.summary()}"
                    ),
                    context={"directory": str(directory)},
                )
            )
    return violations


def run_chaos(config: ChaosConfig) -> DrillResult:
    """One full nemesis run: chaos phase, heal, drain, invariant battery."""
    from repro.sim.metrics import collect_metrics
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    plan = build_fault_plan(config)
    durability = None
    if config.durability_root is not None:
        from repro.durability.config import DurabilityConfig

        durability = DurabilityConfig(root=config.durability_root)
    system = MultidatabaseSystem(
        SystemConfig(
            sites=config.sites,
            n_coordinators=2,
            seed=config.seed,
            faults=plan,
            reliable=ReliableConfig(seed=config.seed),
            failure_detector=FailureDetectorConfig(stop_at=config.duration),
            # Generous budgets: a partition must look like latency to the
            # decision delivery, not kill the coordinator process.
            coordinator_timeouts=CoordinatorTimeouts(
                result_timeout=500.0,
                vote_timeout=500.0,
                ack_timeout=120.0,
                max_resends=400,
            ),
            durability=durability,
        )
    )
    crasher = RandomAgentCrashInjector(
        system,
        probability=config.crash_probability,
        max_crashes_per_site=config.max_crashes_per_site,
        min_downtime=50.0,
        max_downtime=400.0,
        seed=config.seed * 31 + 5,
    )

    # Submissions land inside the first ~60% of the nemesis window so
    # 2PC exchanges actually overlap the faults.
    workload = WorkloadGenerator(
        WorkloadConfig(
            sites=config.sites,
            n_global=config.n_global,
            n_local=config.n_local,
            mean_interarrival=(0.6 * config.duration) / max(config.n_global, 1),
            seed=config.seed,
        )
    ).generate()

    def heal() -> None:
        # The wire faults expired at heal_at; now revive the processes.
        if system.failure_detector is not None:
            system.failure_detector.stop()
        for site in config.sites:
            if system.agent(site).crashed:
                system.recover_agent(site)

    run = drive(
        system,
        workload,
        config.duration + config.drain,
        heal=(config.duration, heal),
    )
    # A coordinator process that died (e.g. its resend budget ran out
    # against a never-healing site) is a *counted* outcome under chaos;
    # the invariant battery decides whether it broke safety.
    violations = run.drain_violations() + invariant_battery(system)
    system.close()
    if config.durability_root is not None:
        violations.extend(wal_battery(config.durability_root))

    metrics = collect_metrics(system)
    counters = {
        "messages_lost": metrics.messages_lost,
        "messages_duplicated": metrics.messages_duplicated,
        "messages_spiked": metrics.messages_spiked,
        "partition_drops": metrics.partition_drops,
        "retransmits": metrics.retransmits,
        "dups_dropped": metrics.dups_dropped,
        "session_resets": metrics.session_resets,
        "agent_crashes": metrics.agent_crashes,
        "agent_restarts": metrics.agent_restarts,
        "quarantine_refusals": metrics.quarantine_refusals,
        "dead_letters": metrics.dead_letters,
        "coordinator_deaths": len(run.coordinator_deaths),
        "crash_injections": len(crasher.crash_log),
    }
    return DrillResult(
        seed=config.seed,
        committed=len(run.committed_globals),
        aborted=len(run.aborted_globals),
        sim_time=run.finished_at,
        counters=counters,
        violations=violations,
        schedule=plan.describe(),
    )
