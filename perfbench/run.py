#!/usr/bin/env python3
"""The DTM benchmark: one command, four workloads, checked outputs.

Usage (from the repository root)::

    python3 perfbench/run.py --workload rt-closed --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` measures the per-layer metrics instead, together with the
tracing overhead (traced minus untraced cost per unit of work).  The
last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": M, "metrics": {...}}

The exit status is 0 only when every output check passed.  The program
under test is imported from ``src/`` of the checkout this file sits in;
nothing is installed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

WORKLOADS = ("rt-closed", "rt-open", "sim-unilateral", "explore-random")
#: Whole-run guard, well inside the 180 s a run may take.
DEADLINE_S = 150.0


def declared_metrics(trace: bool) -> dict:
    """``name -> unit`` of the metrics a run must print (BENCHMARK.json)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {metric["name"]: metric["unit"] for metric in spec[key]}


def exercised_layers(name: str) -> tuple:
    """The per-layer metrics workload ``name`` measures; its traced run
    must report each of them, and reads 0 for every other one."""
    if name in ("rt-closed", "rt-open"):
        import rt_load

        return rt_load.LAYER_METRICS[name[3:]]
    if name == "sim-unilateral":
        import sim_load

        return sim_load.LAYER_METRICS
    import explore_load

    return explore_load.LAYER_METRICS


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_dir: str):
    ctx = SimpleNamespace(src_root=SRC, work_dir=work_dir, deadline_s=DEADLINE_S)
    if name in ("rt-closed", "rt-open"):
        import rt_load

        return rt_load.run(name[3:], seed, seconds, trace, ctx)
    if name == "sim-unilateral":
        import sim_load

        return sim_load.run(seed, seconds, trace, ctx)
    import explore_load

    return explore_load.run(seed, seconds, trace, ctx)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program under test at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    # A TERM (a harness giving up on the run) unwinds like an error, so
    # clusters are reaped and the work directory removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    units = declared_metrics(bool(args.trace))

    # Everything a run writes (cluster data roots, WALs, journals,
    # temporary files of the program) stays under one directory of the
    # checkout and is removed at the end.
    work_base = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_base, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_base)
    os.environ["TMPDIR"] = work_dir
    tempfile.tempdir = work_dir
    started = time.perf_counter()
    try:
        outcome = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace), work_dir
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(work_base)
        except OSError:
            pass

    violations = list(outcome.violations)
    expected = set(exercised_layers(args.workload)) if args.trace else set(units)
    undeclared = sorted(expected - set(units))
    if undeclared:
        violations.append(f"metrics not in BENCHMARK.json: {undeclared}")
    missing = sorted(expected - set(outcome.metrics))
    if missing:
        violations.append(f"metrics not measured: {missing}")
    extra = sorted(set(outcome.metrics) - expected)
    if extra:
        violations.append(f"metrics outside the workload's list: {extra}")
    if args.trace:
        # A per-layer metric of a layer this workload does not exercise
        # reads 0; the note line names them.
        idle = sorted(set(units) - expected)
        outcome.notes["not_exercised"] = idle
        outcome.metrics.update(dict.fromkeys(idle, 0.0))
    if outcome.attempted < 1:
        violations.append("nothing was attempted")
    for violation in violations:
        print(f"perfbench: VIOLATION {violation}", file=sys.stderr)
    notes = dict(outcome.notes)
    notes["wall_s"] = time.perf_counter() - started
    notes["cpus"] = os.cpu_count()
    print("perfbench: " + json.dumps({"workload": args.workload, **notes}, default=str))
    result = {
        "correct": not violations,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": units[name]}
            for name in units
            if name in outcome.metrics
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if not violations else 1


if __name__ == "__main__":
    sys.exit(main())
