"""Choice-driven fault injection: every fault is an explicit decision.

The chaos nemesis (:mod:`repro.sim.failures`) draws its faults from
seeded coins; here the same fault vocabulary — drop, duplicate, delay,
partition from :mod:`repro.net.faults`, agent crashes at the
:data:`~repro.core.agent.CRASH_POINTS`, unilateral aborts of prepared
subtransactions — is routed through
:meth:`~repro.kernel.events.EventKernel.choose`, so the explorer's
strategies decide *exactly* which fault fires where, and a recorded
trace replays the schedule bit for bit.

Two properties keep every explored run terminating:

* **budgets** — each fault class has a finite budget
  (:class:`FaultBudget`); once spent, the corresponding options are no
  longer offered, so traces stay finite and the system quiesces;
* **healable menus** — only faults the configured recovery machinery
  can absorb are offered.  Drops are limited to messages the
  coordinator's vote/result/ack timeouts retry or abort around;
  duplicates to messages the agents handle idempotently (a duplicated
  COMMAND would double-execute, a duplicated COMMAND_RESULT could
  answer the *next* command — neither is a protocol bug, so neither is
  offered); delays stay inside the paper's per-channel FIFO model
  (extra latency, channel clock still enforced); partitions isolate
  one site for a bounded window.  Crashed agents always restart.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.core.dtm import MultidatabaseSystem
from repro.history.model import OpKind, Operation
from repro.net.faults import FaultPlan, FaultyNetwork
from repro.net.messages import Message, MsgType
from repro.net.network import LatencyModel
from repro.sim.failures import abort_current_incarnation


#: Messages whose loss the coordinator timeout machinery heals (votes
#: and results time out into aborts, decisions are resent on ack
#: timeout).  BEGIN is deliberately absent: the paper's protocol has no
#: BEGIN retry, so its loss would wedge the submission, not test it.
DROPPABLE = frozenset(
    {
        MsgType.PREPARE,
        MsgType.READY,
        MsgType.REFUSE,
        MsgType.COMMAND_RESULT,
        MsgType.COMMIT,
        MsgType.ROLLBACK,
        MsgType.COMMIT_ACK,
        MsgType.ROLLBACK_ACK,
    }
)

#: Messages the receiving endpoint handles idempotently (duplicate
#: PREPARE re-votes, duplicate COMMIT/ROLLBACK re-acks, duplicate
#: votes/acks land in already-completed wait events).
DUPPABLE = frozenset(
    {
        MsgType.PREPARE,
        MsgType.READY,
        MsgType.REFUSE,
        MsgType.COMMIT,
        MsgType.ROLLBACK,
        MsgType.COMMIT_ACK,
        MsgType.ROLLBACK_ACK,
    }
)

#: Messages that may be given extra (FIFO-preserving) latency.
DELAYABLE = frozenset(
    {
        MsgType.BEGIN,
        MsgType.COMMAND,
        MsgType.COMMAND_RESULT,
        MsgType.PREPARE,
        MsgType.READY,
        MsgType.REFUSE,
        MsgType.COMMIT,
        MsgType.ROLLBACK,
        MsgType.COMMIT_ACK,
        MsgType.ROLLBACK_ACK,
    }
)


@dataclass
class FaultBudget:
    """Remaining injections per fault class; 0 removes the option."""

    drops: int = 2
    dups: int = 1
    delays: int = 2
    partitions: int = 1
    crashes: int = 1
    aborts: int = 2


class ChoiceNetwork(FaultyNetwork):
    """A transport whose every fault is a recorded choice point.

    Per protocol message the chooser sees one ``msg:<TYPE>`` decision
    whose menu is the budget-gated subset of {deliver, drop, dup,
    delay, partition}; option 0 is always plain FIFO delivery.  With
    no chooser installed the menu collapses to option 0 and the wire
    behaves exactly like the perfect transport.
    """

    def __init__(
        self,
        kernel,
        budget: FaultBudget,
        latency: Optional[LatencyModel] = None,
        seed: int = 0,
        extra_delay: float = 60.0,
        partition_duration: float = 250.0,
    ) -> None:
        super().__init__(kernel, latency=latency, seed=seed, plan=FaultPlan())
        self.budget = budget
        self.extra_delay = extra_delay
        self.partition_duration = partition_duration
        #: ``(isolated_address, end_time)`` — live partition windows.
        self._partitions: List[Tuple[str, float]] = []

    # ------------------------------------------------------------------

    def _severed_now(self, src: str, dst: str) -> bool:
        now = self._kernel.now
        for isolated, end in self._partitions:
            if now < end and (src == isolated) != (dst == isolated):
                return True
        return False

    def send(self, message: Message) -> float:
        channel = (message.src, message.dst)
        if channel in self._paused:
            return super(FaultyNetwork, self).send(message)
        if message.dst not in self._handlers:
            raise SimulationError(f"no endpoint registered for {message.dst!r}")
        if self._severed_now(message.src, message.dst):
            self.messages_sent += 1
            self.partition_drops += 1
            self._note_fault("partition", message)
            return float("inf")

        budget = self.budget
        menu = ["deliver"]
        mtype = message.type
        if budget.drops > 0 and mtype in DROPPABLE:
            menu.append("drop")
        if budget.dups > 0 and mtype in DUPPABLE:
            menu.append("dup")
        if budget.delays > 0 and mtype in DELAYABLE:
            menu.append("delay")
        if budget.partitions > 0 and mtype in DELAYABLE:
            menu.append("partition")
        if len(menu) == 1:
            return super(FaultyNetwork, self).send(message)

        pick = self._kernel.choose(
            f"msg:{mtype.name}",
            len(menu),
            context=f"{message.src}->{message.dst} {message.txn}",
        )
        action = menu[pick]
        if action == "deliver":
            return super(FaultyNetwork, self).send(message)
        if action == "drop":
            budget.drops -= 1
            self.messages_sent += 1
            self.messages_lost += 1
            self._note_fault("loss", message)
            return float("inf")
        if action == "dup":
            budget.dups -= 1
            delivery = super(FaultyNetwork, self).send(message)
            # The copy rides the same FIFO channel, right behind the
            # original — receivers must absorb it idempotently.
            super(FaultyNetwork, self).send(message)
            self.messages_duplicated += 1
            self._note_fault("duplicate", message)
            return delivery
        if action == "delay":
            budget.delays -= 1
            return self._send_delayed(message, self.extra_delay)
        # action == "partition": isolate the destination endpoint for a
        # bounded window; this message is its first casualty.
        budget.partitions -= 1
        end = self._kernel.now + self.partition_duration
        self._partitions.append((message.dst, end))
        self.messages_sent += 1
        self.partition_drops += 1
        self._note_fault("partition", message)
        return float("inf")

    def _send_delayed(self, message: Message, extra: float) -> float:
        """Extra latency *inside* the FIFO discipline: the channel clock
        still clamps, so same-channel order is preserved and only
        cross-channel races move — the paper's Network model intact."""
        now = self._kernel.now
        delay = self._latency.sample(message.src, message.dst, self._rng) + extra
        channel = (message.src, message.dst)
        earliest = self._channel_clock.get(channel, now)
        delivery = max(now + delay, earliest)
        self._channel_clock[channel] = delivery + 1e-9
        self.messages_sent += 1
        self.messages_spiked += 1
        self._note_fault("delay", message)
        self._record_trace(now, delivery, message)
        self._kernel.schedule_at(delivery, lambda: self._deliver(message))
        return delivery


class ChoiceCrashInjector:
    """Agent kills at protocol crash points, decided per passage.

    Every time an agent passes a :data:`~repro.core.agent.CRASH_POINTS`
    probe (and crash budget remains), the chooser decides live-or-die;
    a killed agent always restarts from its log ``downtime`` later, so
    explored runs never wedge on a permanently dead site.
    """

    def __init__(
        self,
        system: MultidatabaseSystem,
        budget: FaultBudget,
        downtime: float = 150.0,
    ) -> None:
        self.system = system
        self.budget = budget
        self.downtime = downtime
        #: ``(time, site, point, txn)`` per kill, in kill order.
        self.crash_log: List[Tuple[float, str, str, object]] = []
        for site in system.config.sites:
            system.agent(site).crash_probe = self._probe_for(site)

    def _probe_for(self, site: str):
        def probe(point: str, txn) -> bool:
            if self.budget.crashes <= 0:
                return False
            pick = self.system.kernel.choose(
                "crash", 2, context=f"{site}:{point}:{txn}"
            )
            if pick == 0:
                return False
            self.budget.crashes -= 1
            self.crash_log.append((self.system.kernel.now, site, point, txn))
            self.system.kernel.schedule(self.downtime, lambda: self._recover(site))
            return True

        return probe

    def _recover(self, site: str) -> None:
        if self.system.agent(site).crashed:
            self.system.recover_agent(site)


class ChoiceAbortInjector:
    """Unilateral aborts of prepared subtransactions, decided per prepare.

    The paper's failure model: the LDBS may throw away a prepared
    subtransaction at any time.  Each PREPARE recorded in the history
    (while abort budget remains) becomes a three-way choice — leave it,
    abort it almost immediately (inside the vote/decision race window),
    or abort it late (after the global decision has likely landed, the
    H1/H2 resubmission window).
    """

    SOON = 1.0
    LATE = 30.0

    def __init__(self, system: MultidatabaseSystem, budget: FaultBudget) -> None:
        self.system = system
        self.budget = budget
        #: ``(txn, site, delay)`` per scheduled abort.
        self.abort_log: List[Tuple[object, str, float]] = []
        system.history.subscribe(self._observe)

    def _observe(self, op: Operation) -> None:
        if op.kind is not OpKind.PREPARE or op.site is None:
            return
        if self.budget.aborts <= 0:
            return
        pick = self.system.kernel.choose(
            "abort", 3, context=f"{op.txn}@{op.site}"
        )
        if pick == 0:
            return
        self.budget.aborts -= 1
        delay = self.SOON if pick == 1 else self.LATE
        txn, site = op.txn, op.site
        self.abort_log.append((txn, site, delay))
        self.system.kernel.schedule(
            delay, lambda: abort_current_incarnation(self.system, txn, site)
        )
