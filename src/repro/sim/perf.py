"""Self-contained performance harness (``python -m repro bench``).

Measures the substrate hot paths with nothing but the standard library
(``time.perf_counter`` + repeat-and-take-best), so it runs anywhere the
package imports — no pytest-benchmark required — and writes two
machine-readable artifacts:

* ``BENCH_kernel.json`` — micro-benchmarks of the event kernel, lock
  manager and history analyzers (op/s and wall time per hot path);
* ``BENCH_e2e.json`` — end-to-end driven workloads (wall time, kernel
  events/s, commit counts).

Every artifact embeds the seed-revision baseline captured on the same
class of machine, so any future PR can diff its numbers against the
recorded trajectory.  Schema documented in ``docs/PERF.md``.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.common.atomic import atomic_write_json

SCHEMA = "repro-bench/v1"

#: Seed-revision numbers (pytest-benchmark ``min`` of the corresponding
#: micro-benchmark, captured on the machine that produced this PR).
#: Kept as the anchor of the perf trajectory: op/s are comparable
#: across revisions on similar hardware, ratios are comparable anywhere.
SEED_BASELINE: Dict[str, Dict[str, float]] = {
    "kernel_schedule_fire": {"iterations": 10_000, "best_wall_s": 0.025709},
    "lock_acquire_release": {"iterations": 1_000, "best_wall_s": 0.0056194},
    "viewser_check": {"iterations": 1, "best_wall_s": 0.0004635},
    "full_2pc_round_trip": {"iterations": 1, "best_wall_s": 0.00031139},
    "workload_2cm_30txn": {"iterations": 30, "best_wall_s": 0.0152134},
}


@dataclass
class BenchResult:
    name: str
    iterations: int
    repeats: int
    best_wall_s: float
    mean_wall_s: float

    @property
    def ops_per_s(self) -> float:
        return self.iterations / self.best_wall_s if self.best_wall_s else 0.0

    def to_json(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "name": self.name,
            "iterations": self.iterations,
            "repeats": self.repeats,
            "best_wall_s": self.best_wall_s,
            "mean_wall_s": self.mean_wall_s,
            "ops_per_s": self.ops_per_s,
        }
        baseline = SEED_BASELINE.get(self.name)
        if baseline:
            base_rate = baseline["iterations"] / baseline["best_wall_s"]
            row["seed_ops_per_s"] = base_rate
            row["speedup_vs_seed"] = self.ops_per_s / base_rate
        return row


def _measure(
    name: str, fn: Callable[[], object], iterations: int, repeats: int
) -> BenchResult:
    """Run ``fn`` ``repeats`` times; report best and mean wall time."""
    fn()  # warm-up (imports, allocator, caches)
    samples: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return BenchResult(
        name=name,
        iterations=iterations,
        repeats=repeats,
        best_wall_s=min(samples),
        mean_wall_s=sum(samples) / len(samples),
    )


# ----------------------------------------------------------------------
# Kernel / lock / analyzer micro-benchmarks
# ----------------------------------------------------------------------


def _bench_kernel_schedule_fire() -> int:
    from repro.kernel import EventKernel

    kernel = EventKernel()
    noop = _noop
    for i in range(10_000):
        kernel.schedule(float(i % 97), noop)
    kernel.run()
    return kernel.events_fired


def _noop() -> None:
    return None


def _bench_kernel_pending_poll() -> int:
    from repro.kernel import EventKernel

    kernel = EventKernel()
    for i in range(10_000):
        kernel.schedule(float(i), _noop)
    total = 0
    for _ in range(100_000):
        total += kernel.pending
    kernel.run()
    return total


def _bench_kernel_cancel_compact() -> int:
    from repro.kernel import EventKernel

    kernel = EventKernel()
    handles = [kernel.schedule(float(i % 53), _noop) for i in range(20_000)]
    for i, handle in enumerate(handles):
        if i % 4:  # cancel 75% — forces repeated tombstone compaction
            handle.cancel()
    kernel.run()
    return kernel.events_fired


def _bench_timer_restart_churn() -> int:
    from repro.kernel import EventKernel, Timer

    kernel = EventKernel()
    fired = [0]
    timer = Timer(kernel, 10.0, lambda: fired.__setitem__(0, fired[0] + 1))
    timer.start()
    for _ in range(10_000):
        kernel.schedule(0.001, timer.restart)
        kernel.run(max_events=1)
    timer.cancel()
    kernel.run()
    return fired[0]


def _bench_lock_acquire_release() -> int:
    from repro.common.ids import DataItemId, SubtxnId, global_txn
    from repro.kernel import EventKernel
    from repro.ldbs.locks import LockManager, LockMode

    rows = [("row", DataItemId("t", k)) for k in range(8)]
    owners = [SubtxnId(global_txn(n), "a", 0) for n in range(1, 5)]
    kernel = EventKernel()
    manager = LockManager(kernel)
    for i in range(1_000):
        owner = owners[i % 4]
        manager.acquire(owner, rows[i % 8], LockMode.S)
        if i % 4 == 3:
            manager.release_all(owner)
    for owner in owners:
        manager.release_all(owner)
    kernel.run()
    return manager.grants


def _bench_lock_release_all_wide() -> int:
    """One owner holding 2000 of 10000 known resources, released at once."""
    from repro.common.ids import DataItemId, SubtxnId, global_txn
    from repro.kernel import EventKernel
    from repro.ldbs.locks import LockManager, LockMode

    kernel = EventKernel()
    manager = LockManager(kernel)
    spectators = [SubtxnId(global_txn(n), "a", 0) for n in range(2, 6)]
    for k in range(10_000):  # resources the manager has seen before
        manager.acquire(spectators[k % 4], ("row", DataItemId("t", k)), LockMode.S)
    owner = SubtxnId(global_txn(1), "a", 0)
    for k in range(2_000):
        manager.acquire(owner, ("row", DataItemId("t", k)), LockMode.S)
    manager.release_all(owner)
    kernel.run()
    return manager.grants


def _bench_wait_for_graph() -> int:
    from repro.common.ids import DataItemId, SubtxnId, global_txn
    from repro.kernel import EventKernel
    from repro.ldbs.locks import LockManager, LockMode

    kernel = EventKernel()
    manager = LockManager(kernel)
    # 2000 uncontended resources plus 20 contended ones.
    for k in range(2_000):
        manager.acquire(
            SubtxnId(global_txn(k % 7 + 1), "a", 0),
            ("row", DataItemId("t", k)),
            LockMode.S,
        )
    for k in range(20):
        resource = ("row", DataItemId("hot", k))
        manager.acquire(SubtxnId(global_txn(100 + k), "a", 0), resource, LockMode.X)
        manager.acquire(SubtxnId(global_txn(200 + k), "a", 0), resource, LockMode.X)
    edges = 0
    for _ in range(500):
        graph = manager.wait_for_graph()
        edges += sum(len(blockers) for blockers in graph.values())
    return edges


def _bench_serialization_graph() -> int:
    from repro.history.graphs import serialization_graph

    ops = _synthetic_ops(n_txns=60, ops_per_txn=40, n_items=25)
    graph = None
    for _ in range(20):
        graph = serialization_graph(ops)
    return graph.number_of_edges()


def _synthetic_ops(n_txns: int, ops_per_txn: int, n_items: int):
    from repro.common.ids import DataItemId, SubtxnId, global_txn
    from repro.history.model import OpKind, Operation

    ops = []
    seq = 0
    for t in range(1, n_txns + 1):
        txn = global_txn(t)
        subtxn = SubtxnId(txn, "a", 0)
        for j in range(ops_per_txn):
            kind = OpKind.WRITE if (t + j) % 3 == 0 else OpKind.READ
            item = DataItemId("t", (t * 7 + j) % n_items)
            ops.append(
                Operation(
                    kind=kind,
                    txn=txn,
                    seq=seq,
                    time=float(seq),
                    site="a",
                    subtxn=subtxn,
                    item=item,
                )
            )
            seq += 1
    return ops


def _bench_viewser_check():
    from repro.common.ids import DataItemId, SubtxnId, global_txn
    from repro.history.committed import committed_projection
    from repro.history.model import History
    from repro.history.viewser import check_view_serializable

    # Seven transactions all funnelling through item X (mirrors
    # benchmarks/test_bench_microperf.py::test_bench_viewser_exact_search).
    history = History()
    time = 0.0
    last_writer = None
    x = DataItemId("t", "X")
    for n in range(1, 8):
        sub = SubtxnId(global_txn(n), "a", 0)
        time += 1
        history.record_read(time, sub, "a", x, read_from=last_writer)
        time += 1
        history.record_write(time, sub, "a", DataItemId("t", chr(ord("A") + n)))
        time += 1
        history.record_write(time, sub, "a", x)
        last_writer = sub
        time += 1
        history.record_local_commit(time, sub, "a")
        time += 1
        history.record_global_commit(time, global_txn(n))
    projection = committed_projection(history)
    result = check_view_serializable(projection)
    return result.serializable


def _bench_full_2pc_round_trip() -> bool:
    from repro.common.ids import global_txn
    from repro.core.coordinator import GlobalTransactionSpec
    from repro.core.dtm import MultidatabaseSystem, SystemConfig
    from repro.ldbs.commands import AddValue, UpdateItem

    system = MultidatabaseSystem(SystemConfig(sites=("a", "b")))
    system.load("a", "t", {"X": 100})
    system.load("b", "t", {"Z": 10})
    done = system.submit(
        GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("t", "X", AddValue(-1))),
                ("b", UpdateItem("t", "Z", AddValue(1))),
            ),
        )
    )
    system.run()
    return done.value.committed


# ----------------------------------------------------------------------
# Certifier micro-benchmarks (naive vs indexed engines)
# ----------------------------------------------------------------------

#: Table sizes of the certifier ops/s trajectory (ISSUE 6).
CERTIFIER_TABLE_SIZES = (100, 1_000, 10_000)
#: Probes per measurement, scaled down as the table grows so the naive
#: O(table) scan stays affordable; ops/s normalizes the comparison.
_CERTIFIER_CHECKS = {100: 5_000, 1_000: 500, 10_000: 100}


def _certifier_checks_for(size: int) -> int:
    return _CERTIFIER_CHECKS.get(size, max(50, 500_000 // size))


def _build_certifier(engine: str, table_size: int):
    from repro.common.ids import SerialNumber, global_txn
    from repro.core.certifier import Certifier, CertifierConfig
    from repro.core.intervals import AliveInterval

    certifier = Certifier("bench", CertifierConfig(engine=engine))
    for i in range(table_size):
        certifier.insert(
            global_txn(i + 1),
            SerialNumber(float(i + 1), "c1", i),
            AliveInterval(0.0, 1e9),
        )
    return certifier


def _make_certify_prepare_bench(
    engine: str, table_size: int, checks: int
) -> Callable[[], int]:
    """Probe a populated table with intersecting candidates.

    ``certify_prepare`` never mutates the table, so the certifier is
    built once and only the probes are measured.
    """
    state: Dict[str, object] = {}

    def bench() -> int:
        from repro.common.ids import SerialNumber, global_txn
        from repro.core.intervals import AliveInterval

        certifier = state.get("certifier")
        if certifier is None:
            certifier = state["certifier"] = _build_certifier(engine, table_size)
        candidate = AliveInterval(1.0, 2.0)  # intersects every entry
        probe_sn = SerialNumber(float(table_size + 1), "c1", 0)
        base = table_size + 1
        ok = 0
        for i in range(checks):
            decision = certifier.certify_prepare(
                global_txn(base + i), probe_sn, candidate
            )
            ok += decision.ok
        return ok

    return bench


def _make_certify_commit_bench(
    engine: str, table_size: int, checks: int
) -> Callable[[], int]:
    """Commit-certify the minimum-SN pivot: the naive scan must visit
    every other entry before it can say yes."""
    state: Dict[str, object] = {}

    def bench() -> int:
        from repro.common.ids import global_txn

        certifier = state.get("certifier")
        if certifier is None:
            certifier = state["certifier"] = _build_certifier(engine, table_size)
        pivot = global_txn(1)
        ok = 0
        for _ in range(checks):
            ok += certifier.certify_commit(pivot).ok
        return ok

    return bench


def certifier_series(
    sizes=CERTIFIER_TABLE_SIZES, repeats: int = 3
) -> List[Dict[str, object]]:
    """The certifier ops/s trajectory: naive vs indexed at each size."""
    rows: List[Dict[str, object]] = []
    for size in sizes:
        checks = _certifier_checks_for(size)
        for engine in ("naive", "indexed"):
            prepare = _measure(
                f"certify_prepare_{engine}_{size}",
                _make_certify_prepare_bench(engine, size, checks),
                checks,
                repeats,
            )
            commit = _measure(
                f"certify_commit_{engine}_{size}",
                _make_certify_commit_bench(engine, size, checks),
                checks,
                repeats,
            )
            rows.append(
                {
                    "engine": engine,
                    "table_size": size,
                    "checks": checks,
                    "repeats": repeats,
                    "prepare_ops_per_s": prepare.ops_per_s,
                    "prepare_best_wall_s": prepare.best_wall_s,
                    "commit_ops_per_s": commit.ops_per_s,
                    "commit_best_wall_s": commit.best_wall_s,
                }
            )
    return rows


def run_certifier_soak(
    n_txns: int, window: int = 512, engine: str = "indexed"
) -> Dict[str, object]:
    """Windowed certifier soak: ``n_txns`` transactions streamed through
    one certifier with ``window`` entries in flight.

    Every transaction is prepare-certified and inserted; a handful of
    the oldest live intervals are extended each step (alive-check
    churn) and an occasional entry is restarted (resubmission churn,
    exercising the archive with ``max_intervals=2``); once the window
    is full the oldest entry is commit-certified, committed and
    removed.  Returns the decision counts plus the high-water marks
    proving the table — and under the indexed engine the lazy index —
    stayed bounded (the epoch GC acceptance criterion).
    """
    from collections import deque

    from repro.common.ids import SerialNumber, global_txn
    from repro.core.certifier import Certifier, CertifierConfig
    from repro.core.intervals import AliveInterval

    certifier = Certifier(
        "soak", CertifierConfig(engine=engine, max_intervals=2)
    )
    live: deque = deque()
    admitted = refused = committed = 0
    max_table = max_depth = 0
    for i in range(n_txns):
        now = float(i + 1)
        txn = global_txn(i + 1)
        sn = SerialNumber(now, "c1", 0)
        candidate = AliveInterval(0.0, now)
        if certifier.certify_prepare(txn, sn, candidate).ok:
            certifier.insert(txn, sn, candidate)
            live.append(txn)
            admitted += 1
        else:
            refused += 1
        for j in range(min(4, len(live))):
            certifier.extend_interval(live[j], now)
        if i % 97 == 0 and live:
            certifier.restart_interval(live[-1], now)
        if len(live) > window:
            oldest = live.popleft()
            if certifier.certify_commit(oldest).ok:
                certifier.record_local_commit(oldest)
                committed += 1
            certifier.remove(oldest)
        if certifier.table_size() > max_table:
            max_table = certifier.table_size()
        depth = certifier.index_depth()
        if depth > max_depth:
            max_depth = depth
    while live:
        certifier.remove(live.popleft())
    return {
        "window": window,
        "admitted": admitted,
        "refused": refused,
        "committed": committed,
        "max_table_size": max_table,
        "max_index_depth": max_depth,
        "final_index_depth": certifier.index_depth(),
        "gc_compactions": certifier.gc_compactions,
        "gc_reclaimed": certifier.gc_reclaimed,
    }


_KERNEL_BENCHES = [
    ("kernel_schedule_fire", _bench_kernel_schedule_fire, 10_000),
    ("kernel_pending_poll", _bench_kernel_pending_poll, 100_000),
    ("kernel_cancel_compact", _bench_kernel_cancel_compact, 20_000),
    ("timer_restart_churn", _bench_timer_restart_churn, 10_000),
    ("lock_acquire_release", _bench_lock_acquire_release, 1_000),
    ("lock_release_all_wide", _bench_lock_release_all_wide, 2_000),
    ("wait_for_graph", _bench_wait_for_graph, 500),
    ("serialization_graph_build", _bench_serialization_graph, 20),
    ("viewser_check", _bench_viewser_check, 1),
    ("full_2pc_round_trip", _bench_full_2pc_round_trip, 1),
]

# The certifier ops/s trajectory rides in the kernel suite so it lands
# in BENCH_kernel.json on every `python -m repro bench` run.
for _engine in ("naive", "indexed"):
    for _size in CERTIFIER_TABLE_SIZES:
        _checks = _certifier_checks_for(_size)
        _KERNEL_BENCHES.append(
            (
                f"certify_prepare_{_engine}_{_size}",
                _make_certify_prepare_bench(_engine, _size, _checks),
                _checks,
            )
        )
    _KERNEL_BENCHES.append(
        (
            f"certify_commit_{_engine}_10000",
            _make_certify_commit_bench(_engine, 10_000, 100),
            100,
        )
    )
del _engine, _size, _checks


# ----------------------------------------------------------------------
# End-to-end workloads
# ----------------------------------------------------------------------


def _run_workload(method: str, n_global: int, seed: int):
    from repro.core.dtm import MultidatabaseSystem, SystemConfig
    from repro.sim.driver import run_schedule
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    sites = ("a", "b", "c")
    system = MultidatabaseSystem(
        SystemConfig(sites=sites, n_coordinators=2, method=method, seed=seed)
    )
    schedule = WorkloadGenerator(
        WorkloadConfig(sites=sites, n_global=n_global, seed=seed, sites_max=2)
    ).generate()
    result = run_schedule(system, schedule)
    return system, result


_E2E_BENCHES = [
    ("workload_2cm_30txn", "2cm", 30, 1),
    ("workload_2cm_100txn", "2cm", 100, 2),
    ("workload_cgm_50txn", "cgm", 50, 3),
]


def _machine_info() -> Dict[str, str]:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_kernel_suite(repeats: int = 5) -> List[BenchResult]:
    return [
        _measure(name, fn, iterations, repeats)
        for name, fn, iterations in _KERNEL_BENCHES
    ]


def run_e2e_suite(
    repeats: int = 3, soak_txns: int = 100_000
) -> List[Dict[str, object]]:
    rows: List[Dict[str, object]] = []
    for name, method, n_global, seed in _E2E_BENCHES:
        _run_workload(method, n_global, seed)  # warm-up
        samples = []
        fired = committed = 0
        for _ in range(repeats):
            start = time.perf_counter()
            system, result = _run_workload(method, n_global, seed)
            samples.append(time.perf_counter() - start)
            fired = system.kernel.events_fired
            committed = len(result.committed_globals)
        best = min(samples)
        row: Dict[str, object] = {
            "name": name,
            "method": method,
            "n_global": n_global,
            "seed": seed,
            "repeats": repeats,
            "best_wall_s": best,
            "mean_wall_s": sum(samples) / len(samples),
            "kernel_events": fired,
            "events_per_s": fired / best if best else 0.0,
            "txns_per_s": n_global / best if best else 0.0,
            "committed": committed,
        }
        baseline = SEED_BASELINE.get(name)
        if baseline:
            base_rate = baseline["iterations"] / baseline["best_wall_s"]
            row["seed_txns_per_s"] = base_rate
            row["speedup_vs_seed"] = row["txns_per_s"] / base_rate
        rows.append(row)
    if soak_txns:
        # The certifier soak runs once (it is a bound check, not a
        # timing race): the table and index must stay bounded.
        start = time.perf_counter()
        stats = run_certifier_soak(soak_txns)
        wall = time.perf_counter() - start
        rows.append(
            {
                "name": f"certifier_soak_{soak_txns // 1000}k",
                "engine": "indexed",
                "n_txns": soak_txns,
                "repeats": 1,
                "best_wall_s": wall,
                "mean_wall_s": wall,
                "ops_per_s": soak_txns / wall if wall else 0.0,
                "txns_per_s": soak_txns / wall if wall else 0.0,
                **stats,
            }
        )
    return rows


def write_artifacts(
    out_dir: str = ".",
    repeats: int = 5,
    e2e_repeats: int = 3,
    quick: bool = False,
) -> Dict[str, str]:
    """Run both suites and write ``BENCH_kernel.json`` / ``BENCH_e2e.json``.

    Returns ``{kind: path}`` for the written artifacts.  ``quick`` drops
    the repeat counts to 2/1 (CI smoke pass).
    """
    if quick:
        repeats, e2e_repeats = 2, 1
    soak_txns = 10_000 if quick else 100_000
    os.makedirs(out_dir, exist_ok=True)
    written: Dict[str, str] = {}

    kernel_results = run_kernel_suite(repeats=repeats)
    kernel_doc = {
        "schema": SCHEMA,
        "kind": "kernel",
        "created_unix": time.time(),
        "machine": _machine_info(),
        "seed_baseline": SEED_BASELINE,
        "results": [result.to_json() for result in kernel_results],
    }
    path = os.path.join(out_dir, "BENCH_kernel.json")
    atomic_write_json(path, kernel_doc, sort_keys=False)
    written["kernel"] = path

    e2e_rows = run_e2e_suite(repeats=e2e_repeats, soak_txns=soak_txns)
    e2e_doc = {
        "schema": SCHEMA,
        "kind": "e2e",
        "created_unix": time.time(),
        "machine": _machine_info(),
        "seed_baseline": SEED_BASELINE,
        "results": e2e_rows,
    }
    path = os.path.join(out_dir, "BENCH_e2e.json")
    atomic_write_json(path, e2e_doc, sort_keys=False)
    written["e2e"] = path
    return written


def render_summary(written: Dict[str, str]) -> str:
    """Human-readable digest of freshly written artifacts."""
    lines: List[str] = []
    for kind in ("kernel", "e2e"):
        path = written.get(kind)
        if path is None:
            continue
        with open(path) as handle:
            doc = json.load(handle)
        lines.append(f"{os.path.basename(path)}:")
        for row in doc["results"]:
            rate = row.get("ops_per_s") or row.get("events_per_s") or 0.0
            speedup = row.get("speedup_vs_seed")
            suffix = f"  ({speedup:.2f}x vs seed)" if speedup else ""
            lines.append(
                f"  {row['name']:<28} {row['best_wall_s'] * 1e3:9.3f} ms"
                f"  {rate:>14,.0f} op/s{suffix}"
            )
    return "\n".join(lines)


def main(out_dir: str = ".", quick: bool = False, repeats: Optional[int] = None) -> int:
    written = write_artifacts(
        out_dir=out_dir,
        repeats=repeats or 5,
        e2e_repeats=max(1, (repeats or 3) // 2) if repeats else 3,
        quick=quick,
    )
    print(render_summary(written))
    for kind, path in sorted(written.items()):
        print(f"wrote {kind}: {path}")
    return 0
