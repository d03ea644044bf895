"""The real-cluster workloads: ``rt-closed`` and ``rt-open``.

Both boot the default cluster (``python -m repro serve cluster``: one
coordinator and three agents as separate OS processes over loopback
TCP, WAL ``sync=batched``, ``op_duration`` 2 ms) and drive debit-credit
with 30% remote accounts from this one process, over one connection to
the coordinator:

- ``rt-closed`` keeps 8 transactions in flight (capacity);
- ``rt-open`` sends on a seeded Poisson schedule at 150 txn/s and times
  every transaction from when it was due (latency at a rate).

The client is :class:`repro.rt.storm.StormClient` with its own run loop
replaced: attachment, the control plane and the post-run verification
(atomic commitment over the merged journals, bank totals, no missing
outcome, quiescence) are the storm client's.  Per-layer figures come
from outside the processes: ``/proc/<pid>``, the ``stats`` control op
and the journals in the data root.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import glob
import json
import os
import random
import shutil
import signal
import sys
import time
from collections import deque
from typing import Dict, List, Optional, Tuple

from common import (
    TRACE_METRICS,
    Outcome,
    ProcSample,
    median,
    per,
    tail_quantile,
    percentile,
    proc_sample,
)
from repro.history.model import OpKind
from repro.rt.journal import read_journal
from repro.rt.node import agent_control, coordinator_control
from repro.rt.storm import StormClient
from repro.rt.tuning import BankConfig
from repro.workload.debitcredit import DebitCreditConfig, DebitCreditGenerator

INFLIGHT = 8
OPEN_RATE = 150.0
REMOTE_FRACTION = 0.3
#: Cluster boots per untraced run; ``setup_s`` is their median.
BOOTS = 3
#: The untraced window is cut into this many slices; latency and CPU
#: figures are medians over them, so one stall of a shared machine moves
#: one slice, not the result.  (Throughput is counted over the whole
#: window: on ``rt-open`` the arrival process sets it, and slicing would
#: only add its sampling noise.)
SLICES = 10
WARMUP_S = 1.0
READY_TIMEOUT = 60.0
TXN_TIMEOUT = 30.0
SETTLE_S = 0.5
STOP_TIMEOUT = 5.0
#: Upper bound on closed-loop capacity used to size the generated
#: workload (measured capacity is about 270 commits/s on 2 CPUs).
MAX_RATE = 1500.0

#: Per-layer metrics each mode's traced run measures.
_ROLES = ("coordinator", "agent", "client")
_RT_LAYERS = TRACE_METRICS + tuple(
    f"rt.{role}.{name}"
    for role in _ROLES
    for name in (
        "cpu_ms_per_commit",
        "cpu_util",
        "ctx_switches_per_commit",
        "rw_syscalls_per_commit",
    )
) + (
    "rt.wire.frames_per_commit",
    "rt.wire.messages_per_commit",
    "net.reliable.retransmits_per_commit",
    "durability.wal_bytes_per_commit",
    "durability.wal_records_per_commit",
    "rt.journal.ops_per_commit",
    "rt.journal.bytes_per_commit",
    "core.agent.execute_ms_p50",
    "core.agent.execute_ms_p99",
    "core.agent.commit_wait_ms_p50",
    "core.agent.commit_wait_ms_p99",
)
LAYER_METRICS = {
    "closed": _RT_LAYERS,
    # only an open loop has a schedule to fall behind
    "open": _RT_LAYERS + ("rt.client.late_p99_ms",),
}

#: Process groups of clusters this process started; ``reap_all`` kills
#: whatever is left of them, whatever path the run took.
_LIVE_GROUPS: Dict[int, str] = {}


def reap_all() -> None:
    for pgid in list(_LIVE_GROUPS):
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(pgid, signal.SIGKILL)
        _LIVE_GROUPS.pop(pgid, None)


class Cluster:
    """One ``serve cluster`` supervisor, in its own process group."""

    def __init__(self, src_root: str, data_root: str) -> None:
        self.src_root = src_root
        self.data_root = data_root
        self.proc: Optional[asyncio.subprocess.Process] = None
        self.info: dict = {}
        self.stderr_tail: deque = deque(maxlen=40)
        self._stderr_task: Optional[asyncio.Task] = None
        self._stdout_task: Optional[asyncio.Task] = None

    async def start(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = self.src_root + os.pathsep + env.get("PYTHONPATH", "")
        self.proc = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro",
            "serve",
            "cluster",
            "--data-root",
            self.data_root,
            "--json",
            stdout=asyncio.subprocess.PIPE,
            stderr=asyncio.subprocess.PIPE,
            env=env,
            start_new_session=True,
        )
        _LIVE_GROUPS[self.proc.pid] = self.data_root
        self._stderr_task = asyncio.ensure_future(self._drain_stderr())
        while True:
            line = await asyncio.wait_for(self.proc.stdout.readline(), READY_TIMEOUT)
            if not line:
                await asyncio.sleep(0.2)
                raise RuntimeError(
                    "cluster exited before its ready line: "
                    + "".join(self.stderr_tail)[-1500:]
                )
            with contextlib.suppress(ValueError):
                event = json.loads(line)
                if event.get("event") == "ready" and event.get("role") == "cluster":
                    break
        self._stdout_task = asyncio.ensure_future(self._drain_stdout())
        self.info = await self._read_cluster_json()
        return self.info

    async def _read_cluster_json(self) -> dict:
        # Read once, after the ready line.  The supervisor rewrites the
        # file in place (truncate, then write), so a read can see a torn
        # document: retry on a decode error.
        path = os.path.join(self.data_root, "cluster.json")
        for _attempt in range(50):
            try:
                with open(path) as fh:
                    return json.load(fh)
            except (ValueError, OSError):
                await asyncio.sleep(0.02)
        raise RuntimeError(f"{path} never decoded")

    async def _drain_stderr(self) -> None:
        with contextlib.suppress(Exception):
            while True:
                line = await self.proc.stderr.readline()
                if not line:
                    return
                self.stderr_tail.append(line.decode(errors="replace"))

    async def _drain_stdout(self) -> None:
        with contextlib.suppress(Exception):
            while await self.proc.stdout.readline():
                pass

    def pids(self) -> Dict[str, List[int]]:
        return {
            "supervisor": [self.proc.pid],
            "coordinator": [c["pid"] for c in self.info.get("coordinators", [])],
            "agent": [a["pid"] for a in self.info.get("agents", [])],
        }

    async def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                self.proc.terminate()
            try:
                await asyncio.wait_for(self.proc.wait(), STOP_TIMEOUT)
            except asyncio.TimeoutError:
                pass
        # Whatever survived the supervisor's own shutdown dies with the
        # process group (the children never leave it).
        with contextlib.suppress(ProcessLookupError, PermissionError):
            os.killpg(self.proc.pid, signal.SIGKILL)
        await self.proc.wait()
        for _ in range(100):
            if not any(
                os.path.exists(f"/proc/{pid}")
                and _is_ours(pid, self.data_root)
                for pids in self.pids().values()
                for pid in pids
            ):
                break
            await asyncio.sleep(0.02)
        _LIVE_GROUPS.pop(self.proc.pid, None)
        for task in (self._stderr_task, self._stdout_task):
            if task is not None:
                task.cancel()


def _is_ours(pid: int, data_root: str) -> bool:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as fh:
            cmdline = fh.read()
        with open(f"/proc/{pid}/stat") as fh:
            state = fh.read().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return data_root.encode() in cmdline and state != "Z"


class BenchClient(StormClient):
    """The storm client with a timed run loop in place of its own."""

    def __init__(self, data_root: str, work_dir: str) -> None:
        super().__init__(
            argparse.Namespace(
                data_root=data_root,
                settle=SETTLE_S,
                # never the committed BENCH_rt.json at the repo root
                bench_out=os.path.join(work_dir, "BENCH_rt.json"),
                kill_coordinator=False,
                at=None,
            )
        )
        self.done_at: Dict[int, float] = {}
        self.waiters: Dict[int, asyncio.Future] = {}
        #: Open loop: how late each transaction was sent (seconds).
        self.late: Dict[int, float] = {}

    def _on_control(self, body: dict) -> None:
        if body.get("op") == "outcome":
            number = body["txn"]
            self.done_at.setdefault(number, asyncio.get_running_loop().time())
            waiter = self.waiters.pop(number, None)
            if waiter is not None and not waiter.done():
                waiter.set_result(body)
        super()._on_control(body)

    def submit(self, spec) -> None:
        self.host.wire.send_control(
            self.ctl_coord, {"op": "submit", "spec": spec, "reply": self.reply}
        )

    async def attach(self, info: dict) -> None:
        self.cluster_info = info
        await self._attach(info)

    async def stats_snapshot(self, info: dict) -> Dict[str, Optional[dict]]:
        snap: Dict[str, Optional[dict]] = {}
        for coord in info["coordinators"]:
            snap[f"coordinator:{coord['name']}"] = await self._fetch_stats(
                f"coord-{coord['name']}", coordinator_control(coord["name"])
            )
        for agent in info["agents"]:
            snap[f"agent:{agent['site']}"] = await self._fetch_stats(
                f"agent-{agent['site']}", agent_control(agent["site"])
            )
        snap["client"] = {"wire": self.host.wire.stats()}
        return snap


def make_workload(seed: int, n: int, bank: BankConfig):
    return DebitCreditGenerator(
        DebitCreditConfig(
            sites=tuple(bank.sites),
            n_transactions=n,
            accounts_per_branch=bank.accounts_per_branch,
            tellers_per_branch=bank.tellers_per_branch,
            remote_fraction=REMOTE_FRACTION,
            initial_account_balance=bank.initial_account_balance,
            seed=seed,
        )
    ).generate()


def arrival_offsets(seed: int, rate: float, horizon: float) -> List[float]:
    """Seeded Poisson arrival times in ``[0, horizon)``."""
    rng = random.Random(seed * 7919 + 17)
    offsets, t = [], 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return offsets
        offsets.append(t)


class Window:
    """One measurement window, cut into equal slices, and the samples
    taken at the slice edges."""

    def __init__(self, start: float, end: float, traced: bool, slices: int) -> None:
        step = (end - start) / slices
        self.edges = [start + i * step for i in range(slices)] + [end]
        self.traced = traced
        #: When each edge was actually sampled (loop clock).
        self.marks: List[float] = []
        self.proc: List[Dict[str, List[ProcSample]]] = []
        self.stats: List[Dict[str, Optional[dict]]] = []
        self.journal_bytes: List[int] = []

    @property
    def seconds(self) -> float:
        return self.marks[-1] - self.marks[0]


async def _sample_edges(window: Window, cluster: Cluster, client) -> None:
    loop = asyncio.get_running_loop()
    for index, when in enumerate(window.edges):
        await asyncio.sleep(max(0.0, when - loop.time()))
        pids = cluster.pids()
        pids["client"] = [os.getpid()]
        window.marks.append(loop.time())
        window.proc.append(
            {role: [proc_sample(pid) for pid in group] for role, group in pids.items()}
        )
        if window.traced and index in (0, len(window.edges) - 1):
            window.stats.append(await client.stats_snapshot(cluster.info))
            window.journal_bytes.append(
                sum(
                    os.path.getsize(path)
                    for path in glob.glob(
                        os.path.join(cluster.data_root, "journal-*.log")
                    )
                )
            )


async def drive(
    client: BenchClient,
    specs: List,
    mode: str,
    seed: int,
    t_begin: float,
    t_end: float,
) -> Dict[int, float]:
    """Submit until ``t_end``; return the due (open) or send (closed)
    time of every transaction submitted."""
    loop = asyncio.get_running_loop()
    spec_iter = iter(specs)
    origin: Dict[int, float] = {}

    if mode == "closed":

        async def worker() -> None:
            while loop.time() < t_end:
                spec = next(spec_iter, None)
                if spec is None:
                    return
                number = spec.txn.number
                waiter = loop.create_future()
                client.waiters[number] = waiter
                origin[number] = loop.time()
                client.submit(spec)
                with contextlib.suppress(asyncio.TimeoutError):
                    await asyncio.wait_for(waiter, TXN_TIMEOUT)

        await asyncio.gather(*(worker() for _ in range(INFLIGHT)))
    else:
        for offset in arrival_offsets(seed, OPEN_RATE, t_end - t_begin):
            spec = next(spec_iter, None)
            if spec is None:
                break
            due = t_begin + offset
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            now = loop.time()
            client.late[spec.txn.number] = now - due
            origin[spec.txn.number] = due
            client.submit(spec)
    return origin


async def _await_outcomes(client: BenchClient, origin: Dict[int, float]) -> None:
    loop = asyncio.get_running_loop()
    deadline = loop.time() + TXN_TIMEOUT
    while loop.time() < deadline:
        if all(number in client.outcomes for number in origin):
            return
        await asyncio.sleep(0.05)
    client.missing.extend(n for n in origin if n not in client.outcomes)


def _role_delta(first: dict, last: dict) -> Dict[str, ProcSample]:
    return {
        role: sum((b - a for a, b in zip(first[role], last[role])), ProcSample())
        for role in first
    }


def _window_metrics(
    window: Window, client: BenchClient, origin: Dict[int, float]
) -> dict:
    """Commits, latencies and CPU of a window and of each of its slices.

    A commit belongs to the slice it completed in; a latency sample to
    the slice its transaction was sent (closed) or due (open) in.
    """
    slices = []
    for index in range(len(window.marks) - 1):
        start, end = window.marks[index], window.marks[index + 1]
        commits = [
            n
            for n, out in client.outcomes.items()
            if out["committed"] and start <= client.done_at[n] < end
        ]
        latencies = [
            (client.done_at[n] - origin[n]) * 1000.0
            for n, out in client.outcomes.items()
            if out["committed"] and n in origin and start <= origin[n] < end
        ]
        roles = _role_delta(window.proc[index], window.proc[index + 1])
        cpu_s = sum(sample.cpu_s for sample in roles.values())
        slices.append(
            {
                "p50": percentile(latencies, 0.5),
                "tail": percentile(latencies, tail_quantile(len(latencies))),
                "cpu_ms_per_commit": per(cpu_s * 1000.0, len(commits)),
                "commits": len(commits),
                "latencies": latencies,
            }
        )
    return {
        "slices": slices,
        "commits": sum(s["commits"] for s in slices),
        "per_role": _role_delta(window.proc[0], window.proc[-1]),
        "cpu_ms_per_commit": median([s["cpu_ms_per_commit"] for s in slices]),
    }


def _journal_phases(data_root: str, numbers: set) -> Tuple[List[float], List[float]]:
    """Per (txn, site): first DML op -> PREPARE, PREPARE -> LOCAL_COMMIT
    (ms), from each agent's own journal (one clock per process)."""
    execute, commit_wait = [], []
    for path in glob.glob(os.path.join(data_root, "journal-agent-*.log")):
        first: Dict[Tuple[int, str], float] = {}
        prepared: Dict[Tuple[int, str], float] = {}
        for op in read_journal(path):
            if op.txn is None or op.txn.number not in numbers or op.site is None:
                continue
            key = (op.txn.number, op.site)
            if op.kind in (OpKind.READ, OpKind.WRITE):
                first.setdefault(key, op.time)
            elif op.kind is OpKind.PREPARE:
                prepared[key] = op.time
                if key in first:
                    execute.append((op.time - first[key]) * 1000.0)
            elif op.kind is OpKind.LOCAL_COMMIT and key in prepared:
                commit_wait.append((op.time - prepared.pop(key)) * 1000.0)
    return execute, commit_wait


def _layer_metrics(
    window: Window,
    base: dict,
    client: BenchClient,
    origin: Dict[int, float],
    data_root: str,
) -> Dict[str, float]:
    """Per-layer figures of the traced window (``base``: its
    :func:`_window_metrics`)."""
    commits = base["commits"]
    roles = base["per_role"]
    out: Dict[str, float] = {}
    for role in _ROLES:
        sample = roles[role]
        out[f"rt.{role}.cpu_ms_per_commit"] = per(sample.cpu_s * 1000.0, commits)
        out[f"rt.{role}.cpu_util"] = sample.cpu_s / window.seconds
        out[f"rt.{role}.ctx_switches_per_commit"] = per(sample.ctx_switches, commits)
        out[f"rt.{role}.rw_syscalls_per_commit"] = per(sample.rw_syscalls, commits)

    before, after = window.stats

    def delta(path: Tuple[str, ...], kinds=("coordinator", "agent", "client")) -> int:
        total = 0
        for key, stats in after.items():
            if key.split(":")[0] not in kinds or stats is None:
                continue
            prev = before.get(key) or {}
            value, prev_value = stats, prev
            for part in path:
                value = value.get(part, 0) if isinstance(value, dict) else 0
                prev_value = (
                    prev_value.get(part, 0) if isinstance(prev_value, dict) else 0
                )
            total += value - prev_value
        return total

    out["rt.wire.frames_per_commit"] = per(delta(("wire", "frames_sent")), commits)
    out["rt.wire.messages_per_commit"] = per(
        delta(("wire", "messages_sent")), commits
    )
    out["net.reliable.retransmits_per_commit"] = per(
        delta(("session", "retransmits")), commits
    )
    journal_ops = delta(("journal_ops",), kinds=("coordinator", "agent"))
    journal_bytes = window.journal_bytes[1] - window.journal_bytes[0]
    out["rt.journal.ops_per_commit"] = per(journal_ops, commits)
    out["rt.journal.bytes_per_commit"] = per(journal_bytes, commits)
    # Every write(2) of a cluster process goes to its journal or its WAL
    # (sockets use send(2)); the journal's share is known exactly.
    writers = roles["coordinator"] + roles["agent"]
    out["durability.wal_records_per_commit"] = per(
        writers.write_syscalls - journal_ops, commits
    )
    out["durability.wal_bytes_per_commit"] = per(
        writers.write_bytes - journal_bytes, commits
    )
    start, end = window.marks[0], window.marks[-1]
    numbers = {n for n, t in origin.items() if start <= t < end}
    execute, commit_wait = _journal_phases(data_root, numbers)
    out["core.agent.execute_ms_p50"] = percentile(execute, 0.5)
    out["core.agent.execute_ms_p99"] = percentile(execute, 0.99)
    out["core.agent.commit_wait_ms_p50"] = percentile(commit_wait, 0.5)
    out["core.agent.commit_wait_ms_p99"] = percentile(commit_wait, 0.99)
    if client.late:
        late = [client.late[n] for n in numbers if n in client.late]
        out["rt.client.late_p99_ms"] = percentile(late, 0.99) * 1000.0
    return out


async def _run(mode: str, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    outcome = Outcome()
    boot_times: List[float] = []
    boots = 1 if trace else BOOTS
    cluster: Optional[Cluster] = None
    client: Optional[BenchClient] = None
    try:
        for boot in range(boots):
            data_root = os.path.join(ctx.work_dir, f"cluster-{boot}")
            t0 = time.perf_counter()
            cluster = Cluster(ctx.src_root, data_root)
            info = await cluster.start()
            client = BenchClient(data_root, ctx.work_dir)
            await client.attach(info)
            boot_times.append(time.perf_counter() - t0)
            if boot < boots - 1:
                await client.host.close()
                await cluster.stop()
                shutil.rmtree(data_root, ignore_errors=True)
        bank = BankConfig.from_dict(cluster.info["bank"])
        horizon = WARMUP_S + seconds
        rate = MAX_RATE if mode == "closed" else OPEN_RATE * 1.5
        generated = make_workload(seed, int(rate * horizon) + 100, bank)
        specs = [entry.spec for entry in generated.schedule.globals_]

        loop = asyncio.get_running_loop()
        t_begin = loop.time() + 0.05
        measure = t_begin + WARMUP_S
        t_end = measure + seconds
        if trace:
            # Untraced and traced halves; which one goes first alternates
            # with the seed, so drift over the window (a growing journal
            # and WAL, the machine's speed) does not always count as
            # tracing cost.  ``windows[0]`` is the untraced one.
            split = measure + seconds / 2.0
            halves = [(measure, split), (split, t_end)]
            if seed % 2:
                halves.reverse()
            windows = [Window(*halves[0], False, 1), Window(*halves[1], True, 1)]
        else:
            windows = [Window(measure, t_end, False, SLICES)]
        samplers = [
            asyncio.ensure_future(_sample_edges(w, cluster, client)) for w in windows
        ]
        origin = await drive(client, specs, mode, seed, t_begin, t_end)
        await asyncio.gather(*samplers)
        await _await_outcomes(client, origin)

        committed = sorted(n for n, o in client.outcomes.items() if o["committed"])
        aborted = len(client.outcomes) - len(committed)
        await asyncio.sleep(SETTLE_S)
        await client._verify(client.cluster_info, bank, generated, committed, None)
        outcome.violations.extend(client.failures)
        outcome.attempted = len(origin)
        outcome.failed = len(client.missing)
        outcome.notes.update(
            submitted=len(origin),
            committed=len(committed),
            aborted=aborted,
            missing=len(client.missing),
            boots=[round(b, 4) for b in boot_times],
        )

        main = _window_metrics(windows[0], client, origin)
        if trace:
            traced = _window_metrics(windows[1], client, origin)
            layers = _layer_metrics(
                windows[1], traced, client, origin, cluster.data_root
            )
            layers["failed_ratio"] = per(aborted + len(client.missing), len(origin))
            untraced_cost = main["cpu_ms_per_commit"]
            traced_cost = traced["cpu_ms_per_commit"]
            layers["trace.overhead_ms_per_op"] = traced_cost - untraced_cost
            layers["trace.overhead_ratio"] = per(traced_cost - untraced_cost, untraced_cost)
            outcome.metrics = layers
            outcome.notes["traced_commits"] = traced["commits"]
        else:
            slices = main["slices"]
            latencies = [x for s in slices for x in s["latencies"]]
            outcome.notes.update(
                latency_samples=len(latencies),
                latency_p99_ms=percentile(latencies, 0.99),
            )
            outcome.metrics = {
                "throughput_per_s": main["commits"] / windows[0].seconds,
                "latency_p50_ms": median([s["p50"] for s in slices]),
                "latency_tail_ms": median([s["tail"] for s in slices]),
                "cpu_ms_per_op": main["cpu_ms_per_commit"],
                "setup_s": median(boot_times),
            }
        return outcome
    finally:
        if client is not None and client.host is not None:
            with contextlib.suppress(Exception):
                await client.host.close()
        if cluster is not None:
            await cluster.stop()


def run(mode: str, seed: int, seconds: float, trace: bool, ctx) -> Outcome:
    async def guarded() -> Outcome:
        return await asyncio.wait_for(
            _run(mode, seed, seconds, trace, ctx), ctx.deadline_s
        )

    try:
        return asyncio.run(guarded())
    finally:
        reap_all()
