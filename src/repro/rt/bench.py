"""Real-runtime federation benchmark series for ``python -m repro bench``.

Runs the live storm workload against 1, 2, and 4 coordinators (same
workload, same seed, same agents) and records each run — plus a
``federation_series`` summary with the throughput ratios — into
``BENCH_rt.json``.

Each scale launches its own supervised cluster (coordinators, agents,
and for the federated scales the SN-lease allocator) as real
subprocesses over TCP, so the series measures the whole stack:
routing, leases, session layer, WAL forcing.  Throughput scaling with
the coordinator count needs at least as many usable cores as
processes; on a single-core container the series still records honest
per-scale numbers, they just measure scheduler overhead instead of
parallelism (the summary includes ``cpus`` so readers can tell).
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import os
import shutil
import tempfile
import time
from typing import Dict, Optional, Sequence

from repro.common.atomic import atomic_write_json

#: Coordinator counts measured by the series.
FEDERATION_SCALES = (1, 2, 4)


def _storm_args(
    n_coordinators: int,
    data_root: str,
    bench_out: str,
    txns: int,
    inflight: int,
    seed: int,
) -> argparse.Namespace:
    """The exact argument surface ``python -m repro storm`` would build."""
    return argparse.Namespace(
        data_root=data_root,
        launch=True,
        txns=txns,
        seed=seed,
        remote_fraction=0.3,
        inflight=inflight,
        kill_agent=0,
        kill_coordinator=False,
        at="prepared",
        kill_after=2,
        txn_timeout=30.0,
        timeout=240.0,
        settle=2.0,
        label=f"federation_c{n_coordinators}",
        bench_out=bench_out,
        json_report=False,
        quit_cluster=False,
        federated=n_coordinators > 1,
        coordinators=n_coordinators,
        n_shards=8,
        lease_span=64,
        handoff=False,
        kill_during_handoff="none",
    )


def run_federation_series(
    out_dir: str = ".",
    txns: int = 200,
    inflight: int = 32,
    seed: int = 0,
    scales: Sequence[int] = FEDERATION_SCALES,
    keep_data: bool = False,
) -> Dict[str, dict]:
    """Run the storm at each coordinator scale; return the summary.

    Each run's full report lands in ``BENCH_rt.json`` under its
    ``federation_cN`` label (the storm client records it); this
    function adds the cross-scale ``federation_series`` entry.
    """
    from repro.rt.storm import StormClient

    bench_out = os.path.join(out_dir, "BENCH_rt.json")
    series: Dict[str, dict] = {}
    base_root = tempfile.mkdtemp(prefix="fed-bench-")
    try:
        for n in scales:
            data_root = os.path.join(base_root, f"c{n}")
            args = _storm_args(
                n, data_root, bench_out, txns=txns, inflight=inflight, seed=seed
            )
            client = StormClient(args)
            code = asyncio.run(client.run())
            report = client.report or {}
            series[f"c{n}"] = {
                "coordinators": n,
                "throughput_committed_per_s": report.get(
                    "throughput_committed_per_s", 0.0
                ),
                "latency_p50_s": report.get("latency_p50_s", 0.0),
                "latency_p99_s": report.get("latency_p99_s", 0.0),
                "committed": report.get("committed", 0),
                "aborted": report.get("aborted", 0),
                "ok": code == 0,
            }
    finally:
        if not keep_data:
            shutil.rmtree(base_root, ignore_errors=True)

    baseline = series.get("c1", {}).get("throughput_committed_per_s") or None
    summary = {
        "txns": txns,
        "inflight": inflight,
        "seed": seed,
        "cpus": os.cpu_count(),
        "scales": series,
        "speedup_vs_c1": {
            key: round(entry["throughput_committed_per_s"] / baseline, 3)
            for key, entry in series.items()
            if baseline
        },
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    bench = {"schema": 1, "runs": {}}
    if os.path.exists(bench_out):
        with contextlib.suppress(Exception):
            with open(bench_out) as fh:
                bench = json.load(fh)
    bench["federation_series"] = summary
    atomic_write_json(bench_out, bench)

    parts = ", ".join(
        f"c{n}: {series[f'c{n}']['throughput_committed_per_s']}/s"
        for n in scales
        if f"c{n}" in series
    )
    print(f"federation series ({txns} txns, {os.cpu_count()} cpus): {parts}")
    print(f"wrote federation_series: {bench_out}")
    return summary


def main(out_dir: str = ".", quick: bool = False) -> int:
    """Bench entry point: quick mode shrinks the workload, same shape."""
    run_federation_series(
        out_dir=out_dir,
        txns=60 if quick else 200,
        inflight=16 if quick else 32,
    )
    return 0
