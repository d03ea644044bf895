"""The multidatabase system façade (system S12; the paper's Fig. 1).

``MultidatabaseSystem.build`` wires one complete HMDBS:

* per site: a :class:`~repro.ldbs.ltm.LocalTransactionManager`, its
  :class:`~repro.ldbs.dlu.BoundDataGuard`, a
  :class:`~repro.core.certifier.Certifier` and a
  :class:`~repro.core.agent.TwoPCAgent`;
* a set of :class:`~repro.core.coordinator.Coordinator` instances, each
  with a (possibly drifting) site clock;
* the :class:`~repro.net.network.Network` and the shared
  :class:`~repro.history.model.History` recorder.

The ``method`` string selects the transaction-management method:

======================  ====================================================
``2cm``                 the paper's full 2PC-Agent Certifier method
``2cm-noext``           without the prepare-certification extension (E5)
``2cm-nocommitcert``    without commit certification (shows H2/H3 anomalies)
``2cm-prepare-order``   commit order = prepared order, the rejected
                        alternative of Sec. 5.2/5.3 (fails on H3)
``2cm-conflict-aware``  UNSOUND predicate-style basic certification
                        (refuse only on direct access-set conflicts);
                        blind to indirect conflicts via locals (E17)
``naive``               resubmission without any certification (S18)
``ticket``              predefined total order: SN drawn at BEGIN from a
                        central counter (S19, Elmagarmid/Du-style)
``cgm``                 the Commit Graph Method baseline (S17): global
                        table-granularity S2PL + commit-graph admission
======================  ====================================================
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigError, RefusalReason, TransactionAborted
from repro.common.ids import SubtxnId, TxnId, local_txn
from repro.core.agent import AgentConfig, TwoPCAgent
from repro.core.certifier import Certifier, CertifierConfig, CommitOrderPolicy
from repro.core.coordinator import (
    Coordinator,
    CoordinatorTimeouts,
    GlobalTransactionSpec,
    Scheduler,
)

if TYPE_CHECKING:
    from repro.durability.config import DurabilityConfig
from repro.core.serial import SiteClock, make_sn_generator
from repro.federation.leases import LeasedSN, SnAllocator, open_allocator
from repro.federation.shard import FederationConfig, ShardMap
from repro.history.model import History
from repro.kernel.events import Event, EventKernel
from repro.kernel.process import Process, Sleep
from repro.ldbs.commands import Command
from repro.ldbs.dlu import BoundDataGuard, DLUPolicy
from repro.ldbs.ltm import LTMConfig, LocalTransactionManager
from repro.net.failure_detector import FailureDetector, FailureDetectorConfig
from repro.net.faults import FaultPlan, FaultyNetwork
from repro.net.network import LatencyModel, Network
from repro.net.reliable import ReliableConfig, SessionLayer
from repro.overload.admission import AdmissionController
from repro.overload.breaker import BreakerRegistry
from repro.overload.config import OverloadConfig

METHODS = (
    "2cm",
    "2cm-noext",
    "2cm-nocommitcert",
    "2cm-prepare-order",
    "2cm-conflict-aware",
    "naive",
    "ticket",
    "cgm",
)


@dataclass(frozen=True)
class SystemConfig:
    """Everything needed to build one multidatabase system."""

    sites: Tuple[str, ...] = ("a", "b")
    n_coordinators: int = 1
    method: str = "2cm"
    seed: int = 0
    latency: LatencyModel = field(default_factory=LatencyModel)
    ltm: LTMConfig = field(default_factory=LTMConfig)
    agent: AgentConfig = field(default_factory=AgentConfig)
    #: Heterogeneity (the paper's D-autonomy): per-site overrides of the
    #: LDBS characteristics — the HERMES prototype federated an INGRES
    #: and a Sybase SQL Server, which did not behave alike.  Sites not
    #: listed use the defaults above.
    ltm_overrides: Dict[str, LTMConfig] = field(default_factory=dict)
    agent_overrides: Dict[str, AgentConfig] = field(default_factory=dict)
    dlu_policy: DLUPolicy = DLUPolicy.ABORT
    #: ``clock`` (the paper's choice), ``counter`` or ``lamport``.
    sn_source: str = "clock"
    #: Per-coordinator-site clock offsets (drift, experiment E9).
    clock_offsets: Dict[str, float] = field(default_factory=dict)
    clock_rates: Dict[str, float] = field(default_factory=dict)
    #: CGM baseline: the globally-updatable table set.  When non-empty,
    #: CGM's data-partition rules are enforced (globals update only
    #: these tables and may not read others once they update; locals
    #: may not update these tables).  Empty = partitioning off.
    cgm_gu_tables: Tuple[str, ...] = ()
    #: Alive intervals remembered per prepared subtransaction (the
    #: paper's "several of them might be stored" optimization; 1 = the
    #: paper's easiest implementation).
    max_intervals: int = 1
    #: Certification engine at every site: ``naive`` (the Appendix
    #: linear scan, the differential oracle and golden default) or
    #: ``indexed`` (endpoint/SN heaps with epoch GC, O(log n)/check).
    #: Both produce identical decisions; ``indexed`` is also
    #: event-for-event identical because certification is synchronous.
    certifier_engine: str = "naive"
    #: Opt into real on-disk WALs for the Agent logs and the
    #: coordinators' decision logs (None = in-memory simulation, the
    #: deterministic-golden default).
    durability: Optional["DurabilityConfig"] = None
    #: Opt-in liveness bounds for crash-injection runs (all None =
    #: wait forever, the failure-free default).
    coordinator_timeouts: Optional[CoordinatorTimeouts] = None
    #: Opt into an unreliable wire (loss/duplication/spikes/partitions).
    #: ``None`` keeps the paper's perfect transport — and the goldens.
    faults: Optional[FaultPlan] = None
    #: Opt into the reliable-channel session layer between the protocol
    #: endpoints and the wire (sequence numbers, acks, retransmission).
    reliable: Optional[ReliableConfig] = None
    #: Opt into the heartbeat failure detector; suspected sites are
    #: quarantined at every coordinator (new globals refused, not hung).
    failure_detector: Optional[FailureDetectorConfig] = None
    #: Opt into the overload-survival layer: admission control with load
    #: shedding, deadline propagation, adaptive resubmission backoff
    #: with GIVEUP escalation, and per-site circuit breakers.  ``None``
    #: keeps the paper's unprotected behaviour — and the goldens.
    overload: Optional[OverloadConfig] = None
    #: Opt into the sharded federation: BEGINs route by key hash to the
    #: owning coordinator, SNs come from leased ranges instead of the
    #: shared generator, and shards can be handed off live.  ``None``
    #: (the default) keeps the single-SN-source behaviour — and the
    #: goldens — even with ``n_coordinators > 1``.
    federation: Optional[FederationConfig] = None
    #: Test-harness hook: build the transport yourself.  Called as
    #: ``factory(kernel, config)`` and must return a
    #: :class:`~repro.net.network.Network` (or subclass); overrides
    #: ``faults``.  The schedule explorer uses this to route every
    #: fault decision through the kernel's choice points.  ``None`` —
    #: the default — keeps the stock wiring and the goldens.
    network_factory: Optional[Callable[[EventKernel, "SystemConfig"], "Network"]] = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; pick one of {METHODS}"
            )
        if len(set(self.sites)) != len(self.sites):
            raise ConfigError("duplicate site names")
        if self.n_coordinators < 1:
            raise ConfigError("need at least one coordinator")
        if self.certifier_engine not in ("naive", "indexed"):
            raise ConfigError(
                f"unknown certifier engine {self.certifier_engine!r}; "
                "pick 'naive' or 'indexed'"
            )
        for overrides in (self.ltm_overrides, self.agent_overrides):
            unknown = set(overrides) - set(self.sites)
            if unknown:
                raise ConfigError(
                    f"overrides for unknown sites: {sorted(unknown)}"
                )


@dataclass
class LocalOutcome:
    """What happened to one local transaction."""

    txn: TxnId
    committed: bool
    reason: Optional[RefusalReason] = None
    started_at: float = 0.0
    finished_at: float = 0.0
    results: List[object] = field(default_factory=list)


def certifier_config_for(method: str) -> CertifierConfig:
    """The certifier feature set of each method preset."""
    if method == "2cm":
        return CertifierConfig()
    if method == "2cm-noext":
        return CertifierConfig(prepare_extension=False)
    if method == "2cm-nocommitcert":
        return CertifierConfig(commit_certification=False)
    if method == "2cm-prepare-order":
        return CertifierConfig(
            prepare_extension=False,
            commit_order=CommitOrderPolicy.PREPARE_ORDER,
        )
    if method == "2cm-conflict-aware":
        # The UNSOUND predicate-style variant (E17 ablation): only
        # refuse disjoint intervals when access sets directly intersect.
        return CertifierConfig(conflict_aware_basic=True)
    if method == "naive":
        return CertifierConfig.naive()
    if method == "ticket":
        return CertifierConfig()
    if method == "cgm":
        return CertifierConfig.naive()
    raise ConfigError(f"unknown method {method!r}")


class MultidatabaseSystem:
    """One fully wired HMDBS plus submission and inspection helpers."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.kernel = EventKernel()
        self.history = History()
        if config.network_factory is not None:
            self.network = config.network_factory(self.kernel, config)
        elif config.faults is not None:
            self.network: Network = FaultyNetwork(
                self.kernel,
                latency=config.latency,
                seed=config.seed,
                plan=config.faults,
            )
        else:
            self.network = Network(
                self.kernel, latency=config.latency, seed=config.seed
            )
        #: The endpoint-facing transport: the session layer when the
        #: reliable channel is enabled, the raw network otherwise.
        self.session: Optional[SessionLayer] = None
        if config.reliable is not None:
            self.session = SessionLayer(
                self.kernel, self.network, config.reliable
            )
        self.transport = self.session if self.session is not None else self.network
        #: Shared per-site circuit breakers (overload layer); every
        #: coordinator and feedback source uses this one registry.
        self.breakers: Optional[BreakerRegistry] = None
        if config.overload is not None and config.overload.breaker is not None:
            self.breakers = BreakerRegistry(config.overload.breaker)
            if self.session is not None:

                def _dead_letter_feedback(message, _why: str) -> None:
                    # A channel whose retry budget died towards a site's
                    # agent is breaker food; coordinator-bound replies
                    # say nothing about a *site* being sick.
                    if message.dst.startswith("agent:"):
                        self.breakers.record_failure(
                            message.dst.split(":", 1)[-1], self.kernel.now
                        )

                self.session.on_dead_letter = _dead_letter_feedback
        self.ltms: Dict[str, LocalTransactionManager] = {}
        self.guards: Dict[str, BoundDataGuard] = {}
        self.certifiers: Dict[str, Certifier] = {}
        self.agents: Dict[str, TwoPCAgent] = {}

        cert_config = replace(
            certifier_config_for(config.method),
            max_intervals=config.max_intervals,
            engine=config.certifier_engine,
        )
        if config.federation is not None:
            # Overlapping lease grants would surface as two live entries
            # sharing one SN — make that impossible to miss.
            cert_config = replace(cert_config, assert_unique_sns=True)
        static_denied = (
            frozenset(config.cgm_gu_tables)
            if config.method == "cgm"
            else frozenset()
        )
        for site in config.sites:
            guard = BoundDataGuard(
                self.kernel,
                policy=config.dlu_policy,
                statically_denied_tables=static_denied,
            )
            ltm = LocalTransactionManager(
                site,
                self.kernel,
                self.history,
                config=config.ltm_overrides.get(site, config.ltm),
                dlu_guard=guard,
            )
            certifier = Certifier(site, cert_config)
            agent_log = None
            if config.durability is not None:
                from repro.durability.agent_log import DurableAgentLog

                agent_log = DurableAgentLog.open_site(site, config.durability)
            agent = TwoPCAgent(
                site,
                self.kernel,
                self.transport,
                self.history,
                ltm,
                certifier,
                dlu_guard=guard,
                config=config.agent_overrides.get(site, config.agent),
                log=agent_log,
                overload=config.overload,
                overload_seed=config.seed ^ zlib.crc32(site.encode()),
            )
            if self.breakers is not None:
                agent.on_resubmit_failure_observers.append(
                    lambda _txn, s=site: self.breakers.record_failure(
                        s, self.kernel.now
                    )
                )
            self.guards[site] = guard
            self.ltms[site] = ltm
            self.certifiers[site] = certifier
            self.agents[site] = agent

        sn_source = "counter" if config.method == "ticket" else config.sn_source
        clocks = {}
        coordinator_sites = [
            f"c{i + 1}" for i in range(config.n_coordinators)
        ]
        for coord_site in coordinator_sites:
            clocks[coord_site] = SiteClock(
                coord_site,
                offset=config.clock_offsets.get(coord_site, 0.0),
                rate=config.clock_rates.get(coord_site, 0.0),
            )
        self.sn_generator = make_sn_generator(sn_source, self.kernel, clocks)

        #: Federation state (all ``None``/empty when not federated).
        self.shard_map: Optional[ShardMap] = None
        self.sn_allocator: Optional[SnAllocator] = None
        self.handoffs = 0
        self.forced_handoffs = 0
        self.handoff_durations: List[float] = []
        self.wrong_shard_forwarded = 0
        if config.federation is not None:
            self.shard_map = ShardMap.initial(
                config.federation.n_shards, coordinator_sites
            )
            if config.durability is not None:
                self.sn_allocator = open_allocator(
                    config.durability,
                    clock=lambda: self.kernel.now,
                    span=config.federation.lease_span,
                )
            else:
                self.sn_allocator = SnAllocator(
                    clock=lambda: self.kernel.now,
                    span=config.federation.lease_span,
                )

        scheduler: Optional[Scheduler] = None
        if config.method == "cgm":
            from repro.baselines.cgm import CGMPartition, CGMScheduler

            partition = (
                CGMPartition.of(*config.cgm_gu_tables)
                if config.cgm_gu_tables
                else None
            )
            scheduler = CGMScheduler(self.kernel, partition=partition)
            for agent in self.agents.values():
                agent.on_ready_observers.append(scheduler.note_prepared)
                agent.on_finalized_observers.append(scheduler.note_finalized)
        self.scheduler = scheduler

        self.coordinators: List[Coordinator] = []
        for coord_site in coordinator_sites:
            decision_log = None
            if config.durability is not None:
                from repro.durability.decision_log import DurableDecisionLog

                decision_log = DurableDecisionLog.open_name(
                    coord_site, config.durability
                )
            admission = None
            if config.overload is not None:
                admission = AdmissionController(
                    config.overload,
                    seed=config.seed ^ zlib.crc32(coord_site.encode()) ^ 0xAD51,
                )
            sn_generator = self.sn_generator
            if self.shard_map is not None:
                # Federated: each coordinator mints from its own leased
                # ranges.  Every accepted lease is force-logged into the
                # coordinator's decision log (when durable) before the
                # first draw, so a restarted coordinator knows its
                # consumed high-water mark.
                sn_generator = LeasedSN(
                    coord_site,
                    request_lease=self._make_lease_request(
                        coord_site, decision_log
                    ),
                    clock=lambda: self.kernel.now,
                )
            self.coordinators.append(
                Coordinator(
                    name=coord_site,
                    site=coord_site,
                    kernel=self.kernel,
                    network=self.transport,
                    history=self.history,
                    sn_generator=sn_generator,
                    sn_at_begin=(config.method == "ticket"),
                    scheduler=scheduler,
                    timeouts=config.coordinator_timeouts,
                    decision_log=decision_log,
                    overload=config.overload,
                    admission=admission,
                    breakers=self.breakers,
                    shard_map=self.shard_map,
                )
            )
        # GC watermark plumbing: a sealed global END record means every
        # ack is in, so agents may forget the transaction (only acted on
        # when AgentConfig.gc_done_txns is set).
        def _note_global_end(txn: TxnId) -> None:
            for agent in self.agents.values():
                agent.note_global_end(txn)

        for coordinator in self.coordinators:
            coordinator.on_end_observers.append(_note_global_end)

        self.failure_detector: Optional[FailureDetector] = None
        if config.failure_detector is not None:

            def _suspect(address: str) -> None:
                site = address.split(":", 1)[-1]
                for coordinator in self.coordinators:
                    coordinator.quarantine(site)

            def _restore(address: str) -> None:
                site = address.split(":", 1)[-1]
                for coordinator in self.coordinators:
                    coordinator.unquarantine(site)

            self.failure_detector = FailureDetector(
                self.kernel,
                self.transport,
                "fd:main",
                config.failure_detector,
                on_suspect=_suspect,
                on_restore=_restore,
            )
            for site in config.sites:
                self.failure_detector.watch(f"agent:{site}")
            self.failure_detector.start()

        self._next_coordinator = 0
        self._local_counter = 0
        self._coordinator_index = {
            c.name: i for i, c in enumerate(self.coordinators)
        }

    def _make_lease_request(self, name: str, decision_log):
        def request():
            lease = self.sn_allocator.grant(name)
            if decision_log is not None:
                decision_log.log_lease(lease.lo, lease.hi)
            return lease

        return request

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, method: str = "2cm", sites: Sequence[str] = ("a", "b"), **kwargs):
        """Convenience constructor: ``build("2cm", sites=("a", "b"), ...)``."""
        return cls(SystemConfig(sites=tuple(sites), method=method, **kwargs))

    def load(self, site: str, table: str, rows: Dict) -> None:
        """Install initial rows at one site."""
        self.ltm(site).store.load(table, rows)

    # ------------------------------------------------------------------
    # Component access
    # ------------------------------------------------------------------

    def ltm(self, site: str) -> LocalTransactionManager:
        if site not in self.ltms:
            raise ConfigError(f"unknown site {site!r}")
        return self.ltms[site]

    def agent(self, site: str) -> TwoPCAgent:
        return self.agents[site]

    def certifier(self, site: str) -> Certifier:
        # Through the agent: a recovered agent rebuilds its certifier.
        return self.agents[site].certifier

    def coordinator(self, index: int = 0) -> Coordinator:
        return self.coordinators[index]

    # ------------------------------------------------------------------
    # Crash / recovery (durability subsystem)
    # ------------------------------------------------------------------

    def crash_agent(self, site: str) -> None:
        """Kill one site's 2PC Agent (see :meth:`TwoPCAgent.crash`)."""
        self.agents[site].crash()

    def recover_agent(self, site: str) -> int:
        """Restart a crashed agent.

        With durability configured, the Agent log is re-opened from
        disk — the crash-recovery path the subsystem exists for; with
        the in-memory log, the surviving object is reused (durable by
        fiat, the paper's simulation stance).
        """
        agent = self.agents[site]
        if not agent.crashed:
            return 0  # a racing injector already healed it; no-op
        log = None
        if self.config.durability is not None:
            from repro.durability.agent_log import DurableAgentLog

            log = DurableAgentLog.open_site(site, self.config.durability)
        return agent.recover(log)

    def close(self) -> None:
        """Close every durable log (drains group-commit windows)."""
        if self.failure_detector is not None:
            self.failure_detector.stop()
        for agent in self.agents.values():
            agent.log.close()
        for coordinator in self.coordinators:
            if coordinator.decision_log is not None:
                coordinator.decision_log.close()
        if self.sn_allocator is not None:
            self.sn_allocator.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(
        self, spec: GlobalTransactionSpec, coordinator: Optional[int] = None
    ) -> Event:
        """Submit a global transaction.

        Unfederated: round-robin over coordinators (the historical
        behaviour).  Federated: routed to the owner of the
        transaction's shard; a WRONG_SHARD refusal (lost a race with a
        concurrent handoff) is forwarded to the redirect hint a bounded
        number of times.  An explicit ``coordinator`` index always goes
        straight there, un-forwarded — tests use it to observe raw
        refusals.
        """
        for site, _command in spec.steps:
            if site not in self.ltms:
                raise ConfigError(f"{spec.txn} references unknown site {site!r}")
        if coordinator is not None:
            return self.coordinators[coordinator].submit(spec)
        if self.shard_map is not None:
            return Process(
                self.kernel,
                self._submit_routed(spec),
                name=f"route:{spec.txn}",
            ).completion
        coordinator = self._next_coordinator
        self._next_coordinator = (
            self._next_coordinator + 1
        ) % len(self.coordinators)
        return self.coordinators[coordinator].submit(spec)

    def _submit_routed(self, spec: GlobalTransactionSpec):
        target = self.shard_map.owner_of(spec.txn)
        for _hop in range(4):
            index = self._coordinator_index[target]
            outcome = yield self.coordinators[index].submit(spec)
            if (
                outcome.committed
                or outcome.reason is not RefusalReason.WRONG_SHARD
                or outcome.redirect is None
                or outcome.redirect == target
            ):
                return outcome
            self.wrong_shard_forwarded += 1
            target = outcome.redirect
        return outcome

    def submit_program(
        self,
        txn: TxnId,
        program,
        coordinator: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Event:
        """Submit an interactive application program (see
        :meth:`repro.core.coordinator.Coordinator.submit_program`)."""
        if coordinator is None:
            coordinator = self._next_coordinator
            self._next_coordinator = (
                self._next_coordinator + 1
            ) % len(self.coordinators)
        return self.coordinators[coordinator].submit_program(
            txn, program, think_time=think_time
        )

    def submit_local(
        self,
        site: str,
        commands: Sequence[Command],
        number: Optional[int] = None,
        think_time: float = 0.0,
    ) -> Event:
        """Run a local transaction directly against one LTM.

        Local transactions are invisible to the DTM (the paper's model);
        they exist so experiments can produce indirect conflicts and
        local view distortions.
        """
        if number is None:
            self._local_counter += 1
            number = 9000 + self._local_counter
        txn = local_txn(number, site)
        ltm = self.ltm(site)

        def body():
            outcome = LocalOutcome(
                txn=txn, committed=False, started_at=self.kernel.now
            )
            handle = ltm.begin(SubtxnId(txn, site, 0))
            try:
                for command in commands:
                    result = yield handle.execute(command)
                    outcome.results.append(result)
                    if think_time > 0:
                        yield Sleep(think_time)
                yield handle.commit()
            except TransactionAborted as exc:
                outcome.reason = exc.reason
                outcome.finished_at = self.kernel.now
                return outcome
            outcome.committed = True
            outcome.finished_at = self.kernel.now
            return outcome

        return Process(self.kernel, body(), name=f"local:{txn}").completion

    # ------------------------------------------------------------------
    # Federation: live shard handoff
    # ------------------------------------------------------------------

    #: Drain-poll period during a handoff (simulated seconds).
    HANDOFF_POLL = 0.25

    def handoff(self, shard: int, to: str) -> Event:
        """Migrate ownership of ``shard`` to coordinator ``to``, live.

        Three phases, run as a kernel process while traffic flows:

        1. **Drain** — the current owner stops accepting new globals for
           the shard (refusing with WRONG_SHARD + a redirect to ``to``)
           and its in-flight ones are awaited, bounded by
           ``FederationConfig.drain_timeout``;
        2. **Epoch bump** — the shared map reassigns the shard and bumps
           its epoch; the new owner force-logs the adoption;
        3. **Release** — the old owner drops its drain mark.

        A drain that times out is *forced*: the epoch fence makes it
        safe (any BEGIN the deposed owner still emits is rejected by
        agents that saw the new epoch), at worst costing those stragglers
        an abort.  Yields a summary dict.
        """
        if self.shard_map is None:
            raise ConfigError("handoff requires a federated system")
        if to not in self._coordinator_index:
            raise ConfigError(f"unknown coordinator {to!r}")
        source_name = self.shard_map.owner(shard)
        source = self.coordinators[self._coordinator_index[source_name]]
        target = self.coordinators[self._coordinator_index[to]]

        def body():
            started = self.kernel.now
            forced = False
            if source_name != to:
                source.begin_drain(shard, successor=to)
                deadline = (
                    self.kernel.now + self.config.federation.drain_timeout
                )
                while source.shard_inflight(shard) > 0:
                    if self.kernel.now >= deadline:
                        forced = True
                        break
                    yield Sleep(self.HANDOFF_POLL)
                epoch = self.shard_map.reassign(shard, to)
                target.adopt_shard(shard, epoch)
                source.end_drain(shard)
            else:
                epoch = self.shard_map.epoch(shard)
            duration = self.kernel.now - started
            self.handoffs += 1
            if forced:
                self.forced_handoffs += 1
            self.handoff_durations.append(duration)
            return {
                "shard": shard,
                "from": source_name,
                "to": to,
                "epoch": epoch,
                "forced": forced,
                "duration": duration,
            }

        return Process(
            self.kernel, body(), name=f"handoff:{shard}->{to}"
        ).completion

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        advance: bool = True,
    ):
        """Drain the kernel (optionally bounded)."""
        return self.kernel.run(until=until, max_events=max_events, advance=advance)

    @property
    def now(self) -> float:
        return self.kernel.now
