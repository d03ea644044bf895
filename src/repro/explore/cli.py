"""``python -m repro explore`` — search, shrink, replay, gate.

Modes (mutually exclusive):

* default — explore one spec (or the whole config matrix) with one
  strategy (or all three), shrink any failure, optionally write
  ``.schedule`` files; exit 1 on violation.
* ``--mutant NAME --expect-find`` — the CI gate: the run *fails unless*
  the explorer finds the seeded regression (and the shrunk trace
  replays with the same violation kinds and fingerprint).
* ``--replay FILE`` — re-run a ``.schedule`` file; exit 0 iff the
  recorded violation kinds and history fingerprint reproduce.
* ``--list-mutants`` — show the seeded regressions.
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Tuple

from repro.common.atomic import atomic_write_json
from repro.explore.harness import ExploreSpec, matrix, run_once
from repro.explore.mutants import MUTANTS
from repro.explore.schedule_file import replay_schedule, save_schedule
from repro.explore.shrink import ShrinkResult, shrink
from repro.explore.strategies import STRATEGIES, Exploration, explore
from repro.explore.trace import TraceChooser


def _spec_from_args(args) -> ExploreSpec:
    return ExploreSpec(
        seed=args.seed,
        certifier_engine=args.engine,
        durability=args.durability,
        n_coordinators=args.coordinators,
        mutant=args.mutant,
    )


def _schedule_path(out_dir: str, spec: ExploreSpec, strategy: str) -> str:
    tag = f"{strategy}-{spec.certifier_engine}"
    tag += "-dur" if spec.durability else ""
    tag += f"-c{spec.n_coordinators}"
    if spec.mutant:
        tag += f"-{spec.mutant}"
    return os.path.join(out_dir, f"{tag}.schedule")


def _explore_one(
    spec: ExploreSpec, strategy: str, args
) -> Tuple[Exploration, Optional[ShrinkResult]]:
    kwargs = {"stop_on_failure": True}
    if args.runs is not None:
        kwargs["max_runs"] = args.runs
    if args.time_budget is not None:
        kwargs["time_budget"] = args.time_budget
    if strategy in ("random", "coverage"):
        kwargs["seed"] = args.seed
    if strategy == "dfs" and args.max_deviations is not None:
        kwargs["max_deviations"] = args.max_deviations

    exploration = explore(spec, strategy, **kwargs)
    print(f"[{spec.describe()}] {exploration.summary()}")

    shrunk: Optional[ShrinkResult] = None
    if exploration.found and not args.no_shrink:
        shrunk = shrink(exploration.failures[0])
        print(shrunk.summary())
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = _schedule_path(args.out, spec, strategy)
            save_schedule(path, shrunk.minimized, found_by=strategy)
            print(f"wrote {path}")
    return exploration, shrunk


def _cmd_explore(args) -> int:
    if args.list_mutants:
        for mutant in MUTANTS.values():
            kinds = ",".join(mutant.expected_kinds)
            print(f"{mutant.name}: {mutant.description} [{kinds}]")
        return 0

    if args.replay:
        report = replay_schedule(args.replay)
        print(report.summary())
        return 0 if report.ok else 1

    base = _spec_from_args(args)
    specs = matrix(base) if args.matrix else [base]
    strategies = (
        list(STRATEGIES) if args.strategy == "all" else [args.strategy]
    )

    explorations: List[dict] = []
    found_any = False
    replays_ok = True
    for spec in specs:
        for strategy in strategies:
            exploration, shrunk = _explore_one(spec, strategy, args)
            record = {
                "spec": spec.to_dict(),
                "strategy": strategy,
                "runs": exploration.runs,
                "elapsed": round(exploration.elapsed, 3),
                "stopped": exploration.stopped,
                "found": exploration.found,
                "coverage": len(exploration.coverage),
            }
            if exploration.found:
                found_any = True
                first = exploration.failures[0]
                record["violations"] = [
                    v.to_dict() for v in first.violations
                ]
                if shrunk is not None:
                    record["shrunk_trace"] = shrunk.trace
                    record["shrink_ratio"] = round(shrunk.ratio, 4)
                    # A shrunk repro is worthless unless it replays:
                    # same violation kinds, byte-identical fingerprint.
                    again = run_once(spec, TraceChooser(shrunk.trace))
                    replayed = (
                        again.fingerprint == shrunk.minimized.fingerprint
                        and again.violation_kinds() & shrunk.kinds
                    )
                    record["replay_ok"] = bool(replayed)
                    if not replayed:
                        replays_ok = False
                        print("REPLAY MISMATCH for shrunk trace")
                    else:
                        print(
                            "replay ok: fingerprint "
                            f"{again.fingerprint[:12]} reproduced"
                        )
            explorations.append(record)

    if args.json:
        atomic_write_json(
            args.json, {"explorations": explorations, "found": found_any}
        )
        print(f"wrote {args.json}")

    if args.expect_find:
        if not found_any:
            print(
                "EXPECTED a violation (seeded mutant "
                f"{args.mutant!r}) but the explorer found none"
            )
            return 1
        if not replays_ok:
            print("mutant found but its shrunk repro did not replay")
            return 1
        print(f"gate ok: mutant {args.mutant!r} found, shrunk, replayed")
        return 0
    return 1 if found_any or not replays_ok else 0


def add_explore_parser(subparsers) -> None:
    parser = subparsers.add_parser(
        "explore",
        help="deterministic schedule explorer (search, shrink, replay)",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--strategy",
        choices=[*STRATEGIES, "all"],
        default="dfs",
        help="search strategy (default: dfs)",
    )
    parser.add_argument(
        "--runs", type=int, default=None, help="max runs per strategy"
    )
    parser.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="wall-clock budget per strategy, seconds",
    )
    parser.add_argument(
        "--max-deviations",
        type=int,
        default=None,
        help="DFS deviation bound (default 2)",
    )
    parser.add_argument("--seed", type=int, default=0, help="base seed")
    parser.add_argument(
        "--engine",
        choices=("naive", "indexed"),
        default="naive",
        help="certifier engine for the explored system",
    )
    parser.add_argument(
        "--durability",
        action="store_true",
        help="explore with the WAL-backed durability layer on",
    )
    parser.add_argument(
        "--coordinators",
        type=int,
        default=1,
        help="federation fan-out (n_coordinators)",
    )
    parser.add_argument(
        "--matrix",
        action="store_true",
        help="explore the full engine x durability x coordinators matrix",
    )
    parser.add_argument(
        "--mutant",
        choices=sorted(MUTANTS),
        default=None,
        help="patch in a seeded regression (the harness's self-test)",
    )
    parser.add_argument(
        "--expect-find",
        action="store_true",
        help="CI gate: exit 1 unless a violation IS found",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip delta-debugging the failing trace",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="directory for .schedule files of shrunk failures",
    )
    parser.add_argument(
        "--json", default=None, help="write a machine-readable summary here"
    )
    parser.add_argument(
        "--replay",
        default=None,
        metavar="FILE",
        help="replay a .schedule file and verify it reproduces",
    )
    parser.add_argument(
        "--list-mutants",
        action="store_true",
        help="list the seeded regressions and exit",
    )
    parser.set_defaults(run=_cmd_explore)
