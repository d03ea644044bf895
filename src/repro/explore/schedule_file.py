"""``.schedule`` files: a failing schedule you can check in and replay.

A schedule file is a small JSON document carrying everything needed to
reproduce one explored run bit-for-bit: the full
:class:`~repro.explore.harness.ExploreSpec` (config-matrix point,
workload knobs, fault budgets, mutant), the choice trace, the expected
history fingerprint, and — for the human reading the repro — the
violation reports and a rendering of each non-default decision.

``python -m repro explore --replay f.schedule`` re-runs the schedule
and fails unless the violation kinds *and* the fingerprint match.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.common.atomic import atomic_write_json
from repro.explore.harness import ExploreSpec, RunResult, run_once
from repro.explore.trace import TraceChooser, strip_trailing_defaults

FORMAT_VERSION = 1


def schedule_payload(
    result: RunResult,
    *,
    found_by: Optional[str] = None,
) -> Dict[str, object]:
    """The JSON document for one (usually shrunk) failing run."""
    return {
        "version": FORMAT_VERSION,
        "found_by": found_by,
        "spec": result.spec.to_dict(),
        "trace": strip_trailing_defaults(result.trace),
        "fingerprint": result.fingerprint,
        "violations": [v.to_dict() for v in result.violations],
        # Redundant with ``trace`` but human-readable: what actually
        # deviates from the default schedule.
        "deviations": [
            p.describe() for p in result.points if p.choice != 0
        ],
    }


def save_schedule(
    path: str,
    result: RunResult,
    *,
    found_by: Optional[str] = None,
) -> None:
    atomic_write_json(
        path, schedule_payload(result, found_by=found_by), sort_keys=False
    )


def load_schedule(path: str) -> Dict[str, object]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    version = data.get("version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"{path}: unsupported schedule version {version!r} "
            f"(expected {FORMAT_VERSION})"
        )
    for key in ("spec", "trace"):
        if key not in data:
            raise ValueError(f"{path}: schedule file missing {key!r}")
    return data


@dataclass
class ReplayReport:
    """Replay of a schedule file, checked against what it promised."""

    result: RunResult
    expected_fingerprint: Optional[str]
    expected_kinds: Set[str]

    @property
    def fingerprint_matches(self) -> bool:
        return (
            self.expected_fingerprint is None
            or self.result.fingerprint == self.expected_fingerprint
        )

    @property
    def kinds_match(self) -> bool:
        if not self.expected_kinds:
            return self.result.ok
        return bool(self.expected_kinds & self.result.violation_kinds())

    @property
    def ok(self) -> bool:
        return self.fingerprint_matches and self.kinds_match

    def summary(self) -> str:
        lines: List[str] = []
        kinds = ",".join(sorted(self.result.violation_kinds())) or "none"
        lines.append(f"replayed {len(self.result.trace)} choices")
        lines.append(f"violations: {kinds}")
        lines.append(
            "fingerprint: "
            + ("match" if self.fingerprint_matches else "MISMATCH")
            + f" ({self.result.fingerprint[:12]})"
        )
        if not self.kinds_match:
            expected = ",".join(sorted(self.expected_kinds)) or "none"
            lines.append(f"expected violation kinds not reproduced: {expected}")
        return "\n".join(lines)


def replay_schedule(path: str) -> ReplayReport:
    """Re-run a schedule file and verify its promises hold."""
    data = load_schedule(path)
    spec = ExploreSpec.from_dict(dict(data["spec"]))
    trace = [int(c) for c in data["trace"]]
    result = run_once(spec, TraceChooser(trace))
    expected_kinds = {
        str(v["kind"]) for v in data.get("violations", []) if "kind" in v
    }
    return ReplayReport(
        result=result,
        expected_fingerprint=data.get("fingerprint"),
        expected_kinds=expected_kinds,
    )
