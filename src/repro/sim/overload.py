"""The overload drill: offered load far above capacity, survived.

The chaos nemesis (:mod:`repro.sim.failures`) attacks the *wire*; this
drill attacks the *queue*.  A seeded workload is submitted at a
multiple of the system's comfortable arrival rate while a seeded
unilateral-abort injector keeps resubmission pressure on the certifier
tables.  With the overload layer off the system has no defence: every
arrival is accepted, prepared entries pile up behind head-of-line
commit certifications, and the backlog feeds on itself.  With
:class:`~repro.overload.config.OverloadConfig` on, admission control
sheds the excess at BEGIN, deadlines cut off work that can no longer
finish in time, backoff decorrelates the retriers — and the run drains
to quiescence with every admitted global in a terminal state.

The invariant battery is the point: overload protection must shed
*cleanly*.  No orphaned PREPARED subtransactions, atomic commitment
and view serializability intact, certifier tables empty at the end.
Same seed ⇒ same run, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.common.errors import RefusalReason
from repro.core.dtm import MultidatabaseSystem, SystemConfig
from repro.history.invariants import Violation
from repro.overload.config import OverloadConfig
from repro.sim.driver import DrillResult, drive
from repro.sim.failures import RandomFailureInjector, invariant_battery
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


@dataclass(frozen=True)
class OverloadDrillConfig:
    """One seeded overload run: the storm and the defences."""

    seed: int = 0
    sites: Tuple[str, ...] = ("a", "b", "c")
    n_global: int = 120
    n_local: int = 12
    #: Offered-load multiplier: arrivals come ``load`` times faster than
    #: the comfortable baseline (``base_interarrival``).
    load: float = 16.0
    base_interarrival: float = 80.0
    #: Unilateral-abort probability per prepared subtransaction — keeps
    #: the resubmission machinery (and its backoff) in play.  High on
    #: purpose: a stuck low-SN prepared entry is what turns high
    #: concurrency into a death spiral (commit certification is in SN
    #: order, and new prepares fail basic certification against stale
    #: intervals), which is the failure mode shedding defends against.
    failure_probability: float = 0.25
    #: Contention shape: few keys, hot set, update-heavy — conflicts
    #: scale superlinearly with concurrency.
    keys_per_site: int = 16
    hot_keys: int = 4
    hot_access_fraction: float = 0.4
    update_fraction: float = 0.7
    #: Overload layer on (admission + deadlines + backoff + breakers)?
    #: ``False`` runs the same storm unprotected, for comparison.
    shed: bool = True
    #: Admission budget per coordinator when the layer is on.
    max_inflight: int = 10
    #: Deadline stamped on every admitted global when the layer is on.
    default_deadline: float = 3_000.0
    #: Safety bound on simulated time; a run still busy here has wedged.
    run_limit: float = 500_000.0


def run_overload(config: OverloadDrillConfig) -> DrillResult:
    """One full drill: storm, drain, invariant battery."""
    from repro.sim.metrics import collect_metrics

    overload = None
    if config.shed:
        overload = OverloadConfig(
            max_inflight_globals=config.max_inflight,
            default_deadline=config.default_deadline,
        )
    # A perfect wire: the storm is at the door, not in the network.
    system = MultidatabaseSystem(
        SystemConfig(
            sites=config.sites,
            n_coordinators=2,
            seed=config.seed,
            overload=overload,
        )
    )
    injector = RandomFailureInjector(
        system,
        probability=config.failure_probability,
        seed=config.seed * 13 + 7,
    )

    workload = WorkloadGenerator(
        WorkloadConfig(
            sites=config.sites,
            n_global=config.n_global,
            n_local=config.n_local,
            mean_interarrival=config.base_interarrival / max(config.load, 1e-9),
            keys_per_site=config.keys_per_site,
            hot_keys=config.hot_keys,
            hot_access_fraction=config.hot_access_fraction,
            update_fraction=config.update_fraction,
            seed=config.seed,
        )
    ).generate()

    # -- the storm, driven to quiescence (or the safety bound) ----------
    run = drive(system, workload, config.run_limit)

    # -- invariant battery ---------------------------------------------
    violations = run.death_violations() + run.drain_violations()
    missing = len(workload.globals_) - len(run.global_outcomes)
    if missing:
        violations.append(
            Violation(
                kind="non-terminal",
                detail=f"{missing} submitted globals never reached a terminal state",
                context={"missing": missing},
            )
        )

    violations.extend(invariant_battery(system))

    for site in config.sites:
        agent = system.agent(site)
        if agent.certifier.table_size() != 0:
            violations.append(
                Violation(
                    kind="certifier-leak",
                    detail=(
                        f"certifier table at {site} not empty: "
                        f"{agent.certifier.table_size()} entries"
                    ),
                    sites=(site,),
                    context={"entries": agent.certifier.table_size()},
                )
            )

    system.close()
    metrics = collect_metrics(system)
    counters = {
        "admitted": metrics.overload_admitted,
        "shed": metrics.overload_shed,
        "deadline_aborts": metrics.deadline_aborts,
        "deadline_refusals": metrics.refusals_by_reason.get(
            str(RefusalReason.DEADLINE_EXPIRED), 0
        ),
        "breaker_refusals": metrics.breaker_refusals,
        "breaker_opens": metrics.breaker_opens,
        "giveups_sent": metrics.giveups_sent,
        "giveup_aborts": metrics.giveup_aborts,
        "resubmissions": metrics.resubmissions,
        "resubmit_failures": metrics.resubmit_failures,
        "injected_aborts": injector.injected,
        "dead_letters": metrics.dead_letters,
    }
    return DrillResult(
        seed=config.seed,
        committed=len(run.committed_globals),
        aborted=len(run.aborted_globals),
        sim_time=run.finished_at,
        counters=counters,
        violations=violations,
        load=config.load,
        shed=config.shed,
        submitted=len(workload.globals_),
    )
