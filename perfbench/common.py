"""Shared helpers: percentiles, process accounting from ``/proc``, and
the record a workload run hands back."""

from __future__ import annotations

import math
import operator
import os
import time
from dataclasses import dataclass, field, fields
from typing import Dict, List, Sequence

CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


# -- statistics --------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile, ``q`` in [0, 1]; 0.0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


#: The tail percentile the end-to-end latency reports.  On a 2-vCPU
#: machine whose speed drifts, p99 moved by a fifth of its median between
#: runs and p95 of ``rt-open`` by up to 0.2; p90 stays inside the bound.
TAIL = 0.90


def tail_quantile(n: int) -> float:
    """:data:`TAIL`, or, with fewer than 100 samples, the highest
    percentile with at least ten samples beyond it (p50 below twenty)."""
    if n < 20:
        return 0.5
    return min(TAIL, 1.0 - 10.0 / n)


def per(total: float, count: float) -> float:
    return total / count if count else 0.0


#: Per-layer metrics every workload's traced run reports.
TRACE_METRICS = ("failed_ratio", "trace.overhead_ms_per_op", "trace.overhead_ratio")


# -- machine speed -----------------------------------------------------------

#: Seconds one :func:`reference_loop` takes at the machine speed the
#: in-process workloads report their times at: about its median on the
#: 2-vCPU VM the benchmark was tuned on (Intel Xeon, Python 3.11).
REFERENCE_S = 0.011


def reference_loop() -> float:
    """Wall seconds of a fixed integer loop that runs no program code: a
    probe of how fast this machine runs the interpreter right now."""
    t0 = time.perf_counter()
    x = 0
    for i in range(150_000):
        x = (x * 31 + i) & 0xFFFF
    return time.perf_counter() - t0


class MachineSpeed:
    """Reference-loop samples taken between the units of work of a run.

    On a shared VM the interpreter's speed drifts by a third over
    minutes, and every CPU-bound figure drifts with it.  ``factor`` is
    the run's median probe over :data:`REFERENCE_S` (above 1 when the
    machine is slow); dividing a time by it, or multiplying a rate,
    gives the figure at the reference speed.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def probe(self) -> None:
        self.samples.append(reference_loop())

    def factor(self) -> float:
        return median(self.samples) / REFERENCE_S

    def normalize(self, metrics: Dict[str, float], rates: Sequence[str]) -> Dict[str, float]:
        """``metrics`` at the reference speed: names in ``rates`` are
        multiplied by :meth:`factor`, every other one is divided by it."""
        factor = self.factor()
        return {
            name: value * factor if name in rates else value / factor
            for name, value in metrics.items()
        }


# -- process accounting ------------------------------------------------------


@dataclass
class ProcSample:
    """One process's cumulative counters at one instant."""

    cpu_s: float = 0.0
    ctx_switches: int = 0
    rw_syscalls: int = 0
    write_syscalls: int = 0
    write_bytes: int = 0

    def _combine(self, other: "ProcSample", op) -> "ProcSample":
        return ProcSample(
            *(op(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )

    def __sub__(self, other: "ProcSample") -> "ProcSample":
        return self._combine(other, operator.sub)

    def __add__(self, other: "ProcSample") -> "ProcSample":
        return self._combine(other, operator.add)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def proc_sample(pid: int) -> ProcSample:
    """CPU (user+sys), context switches of every thread, and the
    read/write syscall and write-byte counters ``/proc/<pid>/io`` keeps.

    ``/proc/<pid>/io`` counts the read/write syscall family (files and
    pipes); socket ``send``/``recv`` are not in it.
    """
    base = f"/proc/{pid}"
    stat = _read(f"{base}/stat")
    fields = stat[stat.rindex(")") + 2 :].split()
    cpu_s = (int(fields[11]) + int(fields[12])) / CLK_TCK
    ctx = 0
    try:
        tids = os.listdir(f"{base}/task")
    except OSError:
        tids = [str(pid)]
    for tid in tids:
        try:
            status = _read(f"{base}/task/{tid}/status")
        except OSError:
            continue
        for line in status.splitlines():
            if "ctxt_switches:" in line:
                ctx += int(line.split()[1])
    io: Dict[str, int] = {}
    for line in _read(f"{base}/io").splitlines():
        key, _, value = line.partition(":")
        io[key.strip()] = int(value)
    return ProcSample(
        cpu_s=cpu_s,
        ctx_switches=ctx,
        rw_syscalls=io.get("syscr", 0) + io.get("syscw", 0),
        write_syscalls=io.get("syscw", 0),
        write_bytes=io.get("wchar", 0),
    )


# -- results -----------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run hands back to ``run.py``."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    violations: List[str] = field(default_factory=list)
    #: Free-form facts printed before the result line (sample counts...).
    notes: Dict[str, object] = field(default_factory=dict)
