"""Per-layer self time and call counts from a deterministic profile.

A simulated run is traced with :mod:`cProfile`: every Python call is a
span, and a function's *self* time (``tottime``) is its span minus the
spans of the calls it made.  Summing self time over the functions of a
module package gives that layer's self time.  C builtins (``heapq``,
``dict`` methods...) have no module of their own; their time goes to
the layer of whoever called them, split by caller.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict, Tuple

#: Path suffix inside ``src/repro`` -> layer name.  First match wins.
LAYER_OF = (
    ("kernel/", "kernel"),
    ("core/certifier.py", "core.certifier"),
    ("core/intervals.py", "core.certifier"),
    ("core/agent", "core.agent"),  # agent.py + agent_log.py
    ("core/coordinator.py", "core.coordinator"),
    ("core/serial.py", "core.coordinator"),
    ("core/", "core.dtm"),
    ("ldbs/", "ldbs"),
    ("net/", "net"),
    ("history/", "history.record"),
    ("sim/", "sim"),
    ("workload/", "workload"),
    ("common/", "common"),
)

Func = Tuple[str, int, str]


def layer_of(filename: str) -> str:
    path = filename.replace(os.sep, "/")
    marker = "/repro/"
    if marker not in path:
        return "other"
    tail = path.split(marker, 1)[1]
    for prefix, layer in LAYER_OF:
        if tail.startswith(prefix):
            return layer
    return "other"


class LayerProfile:
    """Accumulates profiles of several runs; reports per-layer figures."""

    def __init__(self) -> None:
        self.profile = cProfile.Profile()

    def __enter__(self) -> "LayerProfile":
        self.profile.enable()
        return self

    def __exit__(self, *exc) -> None:
        self.profile.disable()

    def _stats(self) -> Dict[Func, tuple]:
        return pstats.Stats(self.profile).stats

    def self_seconds(self) -> Dict[str, float]:
        """Layer -> self time in seconds (builtins charged to callers)."""
        totals: Dict[str, float] = {}
        for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in self._stats().items():
            if filename == "~" and callers:
                for (caller_file, _l, _n), entry in callers.items():
                    layer = layer_of(caller_file)
                    totals[layer] = totals.get(layer, 0.0) + entry[2]
                continue
            layer = layer_of(filename)
            totals[layer] = totals.get(layer, 0.0) + tt
        return totals

    def calls(self, path_suffix: str, name: str) -> int:
        """Primitive + recursive calls of ``name`` defined in a file
        whose path ends with ``path_suffix``."""
        total = 0
        suffix = path_suffix.replace("/", os.sep)
        for (filename, _line, func), (_cc, nc, *_rest) in self._stats().items():
            if func == name and filename.endswith(suffix):
                total += nc
        return total
