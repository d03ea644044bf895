"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``demo``
    The quickstart transfer plus its audit and history.
``scenario {H1,H2,H3,Hx} [--method M] [--timeline] [--trees]``
    Run one of the paper's worked histories and print the evidence.
``experiment {E1,E6..E14,E16..E18}``
    Run one experiment from DESIGN.md and print its table (E2–E5 are
    the scenario histories; run them via ``scenario``).
``fig2``
    Regenerate the execution trees of the paper's Fig. 2.
``report [path]``
    Run the full experiment library into one Markdown report.
``workload [--method M] [--failures P] [--globals N] ...``
    Run a random workload and print metrics + audit.
``bench [--out DIR] [--quick] [--repeat N]``
    Run the substrate perf harness; writes ``BENCH_kernel.json`` and
    ``BENCH_e2e.json`` (see docs/PERF.md).
``chaos [--seed N] [--duration T] [--wal] [--json PATH]``
    Run the seeded chaos nemesis (loss + duplication + delay spikes +
    partitions + agent crashes), heal, and assert the invariant
    battery; exit code 1 on any violation (see docs/PROTOCOL.md §7).
``overload [--seed N] [--load X] [--no-shed] [--json PATH]``
    Run the seeded overload drill (offered load far above capacity,
    admission control + deadlines + backoff + breakers defending) and
    assert the invariant battery; exit code 1 on any violation (see
    docs/PROTOCOL.md §8).
``explore [--strategy S] [--mutant M] [--replay F] [--matrix] ...``
    Deterministic schedule explorer: search the choice-point state
    space for invariant violations, shrink failing traces, write and
    replay ``.schedule`` repro files (see docs/TESTING.md).
``wal {inspect,verify,stats} PATH``
    Offline tooling for the durability subsystem's WAL directories
    (see docs/DURABILITY.md).
``serve {agent,coordinator,cluster}`` / ``storm``
    The real deployment over asyncio TCP and its workload driver
    (see docs/DEPLOY.md).
``chaos-rt [--seed N]``
    The *real-cluster* chaos drill: storm traffic through a wire-level
    fault proxy while the coordinator (or an agent) is SIGKILLed at an
    exact protocol point and one agent's disk injects an fsync
    failure; heal, drain, then the merged-journal invariant battery
    (see docs/DEPLOY.md).
``methods``
    List the method presets.
"""

from __future__ import annotations

import argparse
import sys

from repro.core.dtm import METHODS, MultidatabaseSystem, SystemConfig
from repro.history.trees import render_figure
from repro.sim import experiments
from repro.sim.driver import run_schedule
from repro.sim.failures import RandomFailureInjector
from repro.sim.metrics import audit, collect_metrics
from repro.sim.report import render_table
from repro.sim.timeline import render_timeline
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.scenarios import run_h1, run_h2, run_h3, run_hx

_SCENARIOS = {"H1": run_h1, "H2": run_h2, "H3": run_h3, "Hx": run_hx}

_EXPERIMENTS = {
    "E1": (
        experiments.exp_scenario_matrix,
        "E1: scenario x method matrix",
        ["history", "method", "commit", "abort", "global-dist", "cg-cycle", "view-ser"],
    ),
    "E6": (
        experiments.exp_ci_invariant,
        "E6: Correctness Invariant",
        ["method", "runs", "ci-violations", "guarantee-failures"],
    ),
    "E7": (
        experiments.exp_restrictiveness,
        "E7: failure-free restrictiveness",
        ["method", "committed", "cert-aborts", "lock-aborts", "delays", "latency", "ok"],
    ),
    "E8": (
        experiments.exp_failure_sweep,
        "E8: unilateral-abort sensitivity",
        ["method", "p", "injected", "commit", "abort", "abort-rate", "resub", "anomalies"],
    ),
    "E9": (
        experiments.exp_drift_sweep,
        "E9: clock drift",
        ["offset", "commit", "abort", "ooo-refusals", "ok"],
    ),
    "E10": (
        experiments.exp_alive_interval_sweep,
        "E10: alive-check interval",
        ["interval", "checks", "refusals", "commit", "latency", "ok"],
    ),
    "E11": (
        experiments.exp_dlu_ablation,
        "E11: DLU ablation",
        ["policy", "denials", "allowed", "distorted-runs", "guarantee-failures"],
    ),
    "E12": (
        experiments.exp_srs_ablation,
        "E12: SRS ablation",
        ["scheduler", "rigor-violations", "guarantee-failures"],
    ),
    "E13": (
        experiments.exp_scaling,
        "E13: scaling 2CM vs CGM",
        ["sites", "method", "commit", "throughput", "latency", "p95", "delays"],
    ),
    "E14": (
        experiments.exp_interval_memory,
        "E14: alive-interval memory (negative result)",
        ["memory", "commit", "abort", "refusals", "ok"],
    ),
    "E16": (
        experiments.exp_agent_restarts,
        "E16: prepared-state durability across agent restarts",
        ["restarts", "commit", "abort", "resub", "ok"],
    ),
    "E17": (
        experiments.exp_conflict_awareness,
        "E17: conflict-aware vs conflict-blind certification",
        ["method", "wl-refusals", "wl-commits", "T3", "L4", "view-ser"],
    ),
    "E18": (
        experiments.exp_interleaving_robustness,
        "E18: interleaving robustness",
        ["method", "interleavings", "clean", "corrupted", "commit", "abort", "resub"],
    ),
}


def _cmd_demo(_args) -> int:
    from repro.common.ids import global_txn
    from repro.core.coordinator import GlobalTransactionSpec
    from repro.ldbs.commands import AddValue, UpdateItem

    system = MultidatabaseSystem(SystemConfig(sites=("a", "b")))
    system.load("a", "accounts", {"alice": 900})
    system.load("b", "accounts", {"bob": 100})
    done = system.submit(
        GlobalTransactionSpec(
            txn=global_txn(1),
            steps=(
                ("a", UpdateItem("accounts", "alice", AddValue(-250))),
                ("b", UpdateItem("accounts", "bob", AddValue(250))),
            ),
        )
    )
    system.run()
    outcome = done.value
    print(f"committed: {outcome.committed}   sn: {outcome.sn}")
    print(f"history:   {system.history.render()}")
    print()
    print(audit(system).summary())
    return 0


def _cmd_scenario(args) -> int:
    runner = _SCENARIOS[args.name]
    result = runner(args.method)
    report = result.audit
    print(f"scenario {args.name} under {args.method!r}")
    print("-" * 60)
    for txn, outcome in sorted(result.global_outcomes.items()):
        status = "commit" if outcome.committed else f"abort ({outcome.reason})"
        print(f"  {txn.label}: {status}")
    for txn, outcome in sorted(result.local_outcomes.items()):
        status = "commit" if outcome.committed else f"abort ({outcome.reason})"
        print(f"  {txn.label}: {status}")
    print()
    print(report.summary())
    if report.distortions.view_splits or report.distortions.decomposition_changes:
        print()
        print(report.distortions.describe())
    if args.explain:
        from repro.history.committed import committed_projection
        from repro.history.explain import explain

        print()
        print(explain(committed_projection(result.system.history)).render())
    if args.timeline:
        print()
        print(render_timeline(result.system.history, coalesce=args.coalesce))
    if args.trees:
        print()
        print(render_figure(result.system.history))
    return 0


def _cmd_experiment(args) -> int:
    if args.id not in _EXPERIMENTS:
        print(
            f"unknown or bench-only experiment {args.id!r}; "
            f"available here: {', '.join(sorted(_EXPERIMENTS))} "
            "(E2-E5 run via `scenario`, all via pytest benchmarks/)",
            file=sys.stderr,
        )
        return 2
    fn, title, headers = _EXPERIMENTS[args.id]
    print(render_table(title, headers, fn()))
    return 0


def _cmd_workload(args) -> int:
    sites = tuple(args.sites.split(","))
    system = MultidatabaseSystem(
        SystemConfig(
            sites=sites,
            n_coordinators=args.coordinators,
            method=args.method,
            seed=args.seed,
        )
    )
    if args.failures > 0:
        RandomFailureInjector(system, probability=args.failures, seed=args.seed)
    schedule = WorkloadGenerator(
        WorkloadConfig(
            sites=sites,
            n_global=args.globals_,
            n_local=args.locals_,
            n_tables=args.tables,
            keys_per_site=args.keys,
            update_fraction=args.updates,
            seed=args.seed,
            sites_max=min(2, len(sites)),
        )
    ).generate()
    result = run_schedule(system, schedule)
    metrics = collect_metrics(system, latencies=result.commit_latencies)
    print(f"method={args.method} globals={args.globals_} failures={args.failures}")
    print(f"  committed: {metrics.global_committed}")
    print(f"  aborted:   {metrics.global_aborted}  ({metrics.aborts_by_reason})")
    print(f"  refusals:  {metrics.refusals_by_reason}")
    print(f"  resubmissions: {metrics.resubmissions}")
    print(f"  mean latency:  {metrics.mean_latency:.1f}")
    print(f"  throughput:    {metrics.throughput:.4f} txn/unit")
    print()
    print(audit(system).summary())
    return 0


def _cmd_fig2(_args) -> int:
    from repro.common.ids import global_txn, local_txn
    from repro.workload.scenarios import run_h1, run_h2, run_h3

    h1 = run_h1("naive")
    h2 = run_h2("naive")
    h3 = run_h3("naive")
    print("Fig. 2 (regenerated): examples of transactions\n")
    print(render_figure(h1.system.history, [global_txn(1), global_txn(2)]))
    print()
    print(render_figure(h2.system.history, [global_txn(3), local_txn(4, "a")]))
    print()
    print(
        render_figure(
            h3.system.history,
            [global_txn(5), global_txn(6), local_txn(7, "a"), local_txn(8, "b")],
        )
    )
    return 0


def _cmd_report(args) -> int:
    from repro.sim.reportgen import write_report

    path = write_report(args.path)
    print(f"wrote {path}")
    return 0


def _cmd_methods(_args) -> int:
    for method in METHODS:
        print(method)
    return 0


def _cmd_bench(args) -> int:
    from repro.sim.perf import main as bench_main

    code = bench_main(out_dir=args.out, quick=args.quick, repeats=args.repeat)
    if code == 0 and not args.no_federation:
        from repro.rt.bench import main as federation_main

        code = federation_main(out_dir=args.out, quick=args.quick)
    return code


def _cmd_chaos(args) -> int:
    import contextlib
    import tempfile

    from repro.sim.failures import ChaosConfig, run_chaos

    workdir = tempfile.TemporaryDirectory() if args.wal else contextlib.nullcontext()
    with workdir as root:
        config = ChaosConfig(
            seed=args.seed,
            duration=args.duration,
            n_global=args.globals_,
            n_local=args.locals_,
            durability_root=root,
        )
        result = run_chaos(config)
    return _report_drill(result, args.json)


def _cmd_overload(args) -> int:
    from repro.sim.overload import OverloadDrillConfig, run_overload

    config = OverloadDrillConfig(
        seed=args.seed,
        load=args.load,
        n_global=args.globals_,
        n_local=args.locals_,
        shed=not args.no_shed,
    )
    return _report_drill(run_overload(config), args.json)


def _report_drill(result, json_path) -> int:
    """Print a drill's summary, write its ``--json`` document; exit code."""
    print(result.summary())
    if json_path:
        from repro.common.atomic import atomic_write_json

        atomic_write_json(json_path, result.to_dict())
        print(f"wrote {json_path}")
    return 0 if result.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Veijalainen & Wolski (ICDE 1992) reproduction CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("demo", help="quickstart transfer + audit")
    sub.add_parser("methods", help="list method presets")
    sub.add_parser("fig2", help="regenerate the paper's Fig. 2 trees")
    report = sub.add_parser("report", help="run all experiments -> Markdown")
    report.add_argument("path", nargs="?", default="experiment_report.md")

    scenario = sub.add_parser("scenario", help="run a paper history")
    scenario.add_argument("name", choices=sorted(_SCENARIOS))
    scenario.add_argument("--method", default="2cm", choices=METHODS)
    scenario.add_argument("--timeline", action="store_true")
    scenario.add_argument("--explain", action="store_true")
    scenario.add_argument("--trees", action="store_true")
    scenario.add_argument("--coalesce", type=float, default=0.0)

    experiment = sub.add_parser("experiment", help="run a DESIGN.md experiment")
    experiment.add_argument("id")

    workload = sub.add_parser("workload", help="run a random workload")
    workload.add_argument("--method", default="2cm", choices=METHODS)
    workload.add_argument("--sites", default="a,b,c")
    workload.add_argument("--coordinators", type=int, default=2)
    workload.add_argument("--globals", dest="globals_", type=int, default=30)
    workload.add_argument("--locals", dest="locals_", type=int, default=0)
    workload.add_argument("--tables", type=int, default=4)
    workload.add_argument("--keys", type=int, default=32)
    workload.add_argument("--updates", type=float, default=0.6)
    workload.add_argument("--failures", type=float, default=0.0)
    workload.add_argument("--seed", type=int, default=0)

    bench = sub.add_parser(
        "bench", help="run the perf harness -> BENCH_*.json artifacts"
    )
    bench.add_argument("--out", default=".", help="artifact directory")
    bench.add_argument(
        "--quick", action="store_true", help="smoke pass (fewer repeats)"
    )
    bench.add_argument(
        "--repeat", type=int, default=None, help="repeats per micro-benchmark"
    )
    bench.add_argument(
        "--no-federation",
        action="store_true",
        help="skip the live-cluster federation series (1/2/4 coordinators)",
    )

    chaos = sub.add_parser(
        "chaos", help="run the seeded chaos nemesis + invariant battery"
    )
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--duration", type=float, default=3000.0)
    chaos.add_argument("--globals", dest="globals_", type=int, default=30)
    chaos.add_argument("--locals", dest="locals_", type=int, default=6)
    chaos.add_argument(
        "--wal",
        action="store_true",
        help="use real on-disk WALs (in a temp dir) + scan them after",
    )
    chaos.add_argument(
        "--json", default=None, help="write the result as JSON to this path"
    )

    overload = sub.add_parser(
        "overload", help="run the seeded overload drill + invariant battery"
    )
    overload.add_argument("--seed", type=int, default=0)
    overload.add_argument(
        "--load", type=float, default=16.0, help="offered-load multiplier"
    )
    overload.add_argument("--globals", dest="globals_", type=int, default=120)
    overload.add_argument("--locals", dest="locals_", type=int, default=12)
    overload.add_argument(
        "--no-shed",
        action="store_true",
        help="run the same storm without the overload layer (comparison)",
    )
    overload.add_argument(
        "--json", default=None, help="write the result as JSON to this path"
    )

    from repro.durability.cli import add_wal_parser

    add_wal_parser(sub)

    from repro.explore.cli import add_explore_parser

    add_explore_parser(sub)

    from repro.rt.cli import add_rt_parsers

    add_rt_parsers(sub)

    args = parser.parse_args(argv)
    if getattr(args, "run", None) is not None:
        return args.run(args)
    handlers = {
        "demo": _cmd_demo,
        "fig2": _cmd_fig2,
        "report": _cmd_report,
        "scenario": _cmd_scenario,
        "experiment": _cmd_experiment,
        "workload": _cmd_workload,
        "methods": _cmd_methods,
        "bench": _cmd_bench,
        "chaos": _cmd_chaos,
        "overload": _cmd_overload,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
