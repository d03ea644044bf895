"""The simulation driver: schedules → outcomes.

A :class:`~repro.workload.generator.Schedule` is a deterministic list
of timed submissions (global transactions through coordinators, local
transactions straight into one LTM).  :func:`drive` is the one loop
behind every simulated run — :func:`run_schedule`, the chaos and
overload drills and the explorer's ``run_once``: it loads the initial
data, arms the submissions, records outcomes and coordinator deaths,
drains to a bound and reports what is still pending.  Callers decide
what a death, an escaped exception or a non-quiescent run means;
the :class:`~repro.history.invariants.Violation` records for them are
built here.  Retries of aborted globals are *new* global transactions
to the model, exactly as the paper treats application re-execution.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.ids import TxnId, global_txn
from repro.core.coordinator import GlobalOutcome, GlobalTransactionSpec
from repro.core.dtm import LocalOutcome, MultidatabaseSystem
from repro.history.invariants import Violation

#: Retry transaction numbers start here so they never collide with
#: workload-assigned numbers.
_RETRY_BASE = 1_000_000
#: Simulated time between an aborted global and its retry.
_RETRY_DELAY = 50.0
#: :func:`run_schedule`'s drain bound.
_RUN_LIMIT = 10_000_000.0


@dataclass
class SimulationResult:
    """Everything a benchmark or drill needs from one driven run."""

    system: MultidatabaseSystem
    #: Outcome of every global attempt, including retries, keyed by txn.
    global_outcomes: Dict[TxnId, GlobalOutcome] = field(default_factory=dict)
    local_outcomes: Dict[TxnId, LocalOutcome] = field(default_factory=dict)
    #: retry attempt chains: original txn -> list of retry txns.
    retries: Dict[TxnId, List[TxnId]] = field(default_factory=dict)
    #: Globals whose coordinator process died instead of reporting an
    #: outcome, in death order.
    coordinator_deaths: Dict[TxnId, BaseException] = field(default_factory=dict)
    #: An exception that escaped the kernel (or a local runner) and cut
    #: the run short.
    error: Optional[Exception] = None
    #: The drain's simulated-time bound, and the events still queued
    #: when it stopped (0 = the run quiesced).
    until: float = 0.0
    pending: int = 0
    finished_at: float = 0.0

    @property
    def committed_globals(self) -> List[TxnId]:
        return sorted(
            txn for txn, out in self.global_outcomes.items() if out.committed
        )

    @property
    def aborted_globals(self) -> List[TxnId]:
        return sorted(
            txn for txn, out in self.global_outcomes.items() if not out.committed
        )

    @property
    def commit_latencies(self) -> List[float]:
        return [
            out.latency for out in self.global_outcomes.values() if out.committed
        ]

    def logical_commit_fraction(self) -> float:
        """Fraction of *original* transactions whose chain committed."""
        originals = [
            txn for txn in self.global_outcomes if txn.number < _RETRY_BASE
        ]
        if not originals:
            return 0.0
        done = 0
        for txn in originals:
            chain = [txn] + self.retries.get(txn, [])
            if any(self.global_outcomes[t].committed for t in chain):
                done += 1
        return done / len(originals)

    def death_violations(self) -> List[Violation]:
        """One ``coordinator-death`` violation per dead coordinator process."""
        return [
            Violation(
                kind="coordinator-death",
                detail=f"coordinator process for {txn} died: {error!r}",
                txns=(str(txn),),
            )
            for txn, error in self.coordinator_deaths.items()
        ]

    def drain_violations(self) -> List[Violation]:
        """``exception`` if the run was cut short, ``quiesce`` if events
        were left pending at the bound."""
        violations = []
        if self.error is not None:
            name = type(self.error).__name__
            violations.append(
                Violation(
                    kind="exception",
                    detail=f"unhandled {name}: {self.error}",
                    context={"type": name},
                )
            )
        if self.pending:
            violations.append(
                Violation(
                    kind="quiesce",
                    detail=(
                        f"run did not quiesce within {self.until:g} time "
                        f"units ({self.pending} events pending)"
                    ),
                    context={"pending": self.pending},
                )
            )
        return violations


def drive(
    system: MultidatabaseSystem,
    schedule: "Schedule",
    until: float,
    max_events: Optional[int] = None,
    heal: Optional[Tuple[float, Callable[[], None]]] = None,
    retry_aborted: int = 0,
) -> SimulationResult:
    """Load, arm and drain ``schedule``; never raises for what the run did.

    The drain is one ``run(until, max_events, advance=False)``: a pure
    safety bound that leaves simulated time at the last event.  With
    ``heal=(at, revive)``, the kernel first runs to ``at`` with the
    faults active, then ``revive()`` heals the system before the drain.
    ``retry_aborted`` > 0 re-submits aborted globals under fresh ids up
    to that many times per original.  Only global completions are
    subscribed to: each subscription is a kernel event that would shift
    the explorer's same-time tie batches, so local outcomes are read off
    their completion events after the drain.
    """
    result = SimulationResult(system=system, until=until)
    retry_numbers = itertools.count(_RETRY_BASE)

    for site, tables in schedule.initial_data.items():
        for table, rows in tables.items():
            system.load(site, table, rows)

    def submit_global(
        spec: GlobalTransactionSpec, original: TxnId, attempts_left: int
    ) -> None:
        def done(event) -> None:
            if event.error is not None:
                result.coordinator_deaths[spec.txn] = event.error
                return
            outcome: GlobalOutcome = event.value
            result.global_outcomes[spec.txn] = outcome
            if outcome.committed or attempts_left <= 0:
                return
            retry_txn = global_txn(next(retry_numbers))
            result.retries.setdefault(original, []).append(retry_txn)
            retry_spec = GlobalTransactionSpec(
                txn=retry_txn, steps=spec.steps, think_time=spec.think_time
            )
            system.kernel.schedule(
                _RETRY_DELAY,
                lambda: submit_global(retry_spec, original, attempts_left - 1),
            )

        system.submit(spec).subscribe(done)

    for entry in schedule.globals_:
        system.kernel.schedule(
            entry.at,
            lambda e=entry: submit_global(e.spec, e.spec.txn, retry_aborted),
        )

    local_runs = []
    for entry in schedule.locals_:
        system.kernel.schedule(
            entry.at,
            lambda e=entry: local_runs.append(
                system.submit_local(
                    e.site, e.commands, number=e.number, think_time=e.think_time
                )
            ),
        )

    try:
        if heal is not None:
            heal_at, revive = heal
            system.run(until=heal_at)
            revive()
        system.run(until=until, max_events=max_events, advance=False)
    except Exception as exc:  # a protocol bug surfacing as a crash
        result.error = exc
    result.pending = system.kernel.pending
    result.finished_at = system.kernel.now

    for run in local_runs:
        if run.error is not None:
            result.error = result.error or run.error
        elif run.done:
            result.local_outcomes[run.value.txn] = run.value
    return result


def run_schedule(
    system: MultidatabaseSystem,
    schedule: "Schedule",
    retry_aborted: int = 0,
) -> SimulationResult:
    """Drive ``schedule`` against ``system`` until quiescence.

    After the drain, re-raises an exception that escaped the kernel or
    a local runner; raises :class:`SimulationError` (chained to the
    first dead coordinator's exception) if a coordinator process died
    or the run did not quiesce within the drain bound.
    """
    result = drive(system, schedule, _RUN_LIMIT, retry_aborted=retry_aborted)
    if result.error is not None:
        raise result.error
    problems = result.death_violations() + result.drain_violations()
    if problems:
        first_death = next(iter(result.coordinator_deaths.values()), None)
        raise SimulationError(str(problems[0])) from first_death
    return result


@dataclass
class DrillResult:
    """What one chaos or overload drill did and whether the invariants held.

    Only the overload drill sets ``load``, ``shed`` and ``submitted``
    (reported with the goodput); only chaos sets ``schedule``, its
    seeded fault schedule.
    """

    seed: int
    committed: int
    aborted: int
    sim_time: float
    counters: Dict[str, int]
    #: Structured invariant violations; empty = the run is clean.
    violations: List[Violation]
    load: Optional[float] = None
    shed: Optional[bool] = None
    submitted: Optional[int] = None
    schedule: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def goodput(self) -> float:
        """Committed globals per simulated time unit."""
        return self.committed / self.sim_time if self.sim_time else 0.0

    def summary(self) -> str:
        outcome = (
            f"committed={self.committed} aborted={self.aborted} "
            f"sim_time={self.sim_time:.0f}"
        )
        if self.load is not None:
            outcome = (
                f"load={self.load:g}x shed={self.shed} "
                f"submitted={self.submitted} {outcome} "
                f"goodput={self.goodput:.5f}"
            )
        lines = [f"seed {self.seed}: {outcome}"]
        if self.schedule is not None:
            lines.append("fault schedule:")
            lines.extend("  " + line for line in self.schedule.splitlines())
        lines.append(
            "counters: "
            + " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
        )
        if self.violations:
            lines.append("VIOLATIONS:")
            lines.extend(f"  - {v}" for v in self.violations)
        else:
            lines.append("invariants: all hold")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, object]:
        """The ``--json`` document: every field that is set, plus ``ok``
        (and ``goodput`` with the load)."""
        doc = {
            f.name: getattr(self, f.name)
            for f in fields(self)
            if getattr(self, f.name) is not None
        }
        doc["ok"] = self.ok
        doc["violations"] = [v.to_dict() for v in self.violations]
        if self.load is not None:
            doc["goodput"] = self.goodput
        return doc
