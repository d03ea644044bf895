"""Golden event-order fingerprints (byte-identical determinism).

The digests below were captured on the *seed revision* — before the
substrate hot-path overhaul (O(1) kernel accounting, tombstone
compaction, carrier-based timers, indexed locks, single-drain driver
loop).  Every optimization since must reproduce these runs exactly:
same operations in the same order, same outcomes, same simulated
finish time.  If one of these ever changes, an "optimization" altered
observable behaviour — that is a correctness bug, not a perf tweak.

Regenerate (only after an *intentional* semantic change) with::

    PYTHONPATH=src python - <<'EOF'
    from tests.fingerprint_util import fingerprint, run_seeded_workload
    for seed, failures, method in [(0, 0.0, "2cm"), (7, 0.0, "2cm"),
                                   (13, 0.15, "2cm"), (42, 0.3, "2cm"),
                                   (3, 0.1, "cgm"), (5, 0.1, "naive")]:
        fp = fingerprint(run_seeded_workload(seed, failures=failures, method=method))
        print(f"({seed}, {failures}, {method!r}): {fp}")
    EOF
"""

import hashlib
import json
import random

import pytest

from tests.fingerprint_util import fingerprint, run_seeded_workload

GOLDEN = {
    (0, 0.0, "2cm"): "f9bbfd8388daa01d6911459d60bcb6a85548c4b6b38cb522b164488817bc5283",
    (7, 0.0, "2cm"): "9fd22dd3f0e36e50ebb1299d6d576319f55451f3126fe19990df2eb77e07982a",
    (13, 0.15, "2cm"): "82b01734dbac082ef00e18f15902d11448054bb21806f3328070fafab296e7d3",
    (42, 0.3, "2cm"): "20d85a4588e9d402e4204709bddfb4ee0a141d8f67e92fe0f845e5a42530865e",
    (3, 0.1, "cgm"): "bf9a1c516ae9f3e03bf58a7856ad40f07d9bb7496bb923c9e4b34bee9156726f",
    (5, 0.1, "naive"): "c4a80e2f59666f7dc73259b20c05ede334c69114a6cd4283cb49c5f7de3e0526",
}


@pytest.mark.parametrize("seed,failures,method", sorted(GOLDEN))
def test_matches_seed_revision_fingerprint(seed, failures, method):
    result = run_seeded_workload(seed, failures=failures, method=method)
    assert fingerprint(result) == GOLDEN[(seed, failures, method)]


def test_back_to_back_runs_are_identical():
    a = fingerprint(run_seeded_workload(11, failures=0.2))
    b = fingerprint(run_seeded_workload(11, failures=0.2))
    assert a == b


def test_different_seeds_diverge():
    assert fingerprint(run_seeded_workload(1)) != fingerprint(run_seeded_workload(2))


# ----------------------------------------------------------------------
# Drill goldens: chaos, overload and explore runs, end to end
# ----------------------------------------------------------------------
#
# Each digest covers everything a drill reports: the CLI's stdout (the
# ``summary()``) plus the ``--json`` document it writes, or, for an
# explored run, the history fingerprint, the choice trace and the rest
# of the run result.  The drills share one driver, so a change to it
# that moves a single event shows up here.  Regenerate only after an
# intentional semantic change, with the expressions in the tests below.

DRILL_GOLDEN = {
    ("chaos", "--seed", "0"):
        "689a171734e31b914277a0916c4ecd80f9df7dfbb41dec10f152a2c7a6e61990",
    ("chaos", "--seed", "1", "--wal"):
        "4809d44b86e42c546ed2ce255ee12e82fd2913714482cf446e75423c1a7f7f5a",
    ("overload", "--seed", "0"):
        "26bde7da0657a3c3a390da6bb1b1b1c45f39295f3190952e7de3000d89516227",
    ("overload", "--seed", "0", "--no-shed"):
        "dba9db84e578dd63df82eb152479c09824e3feabb7f84dca1356678211c10c3b",
}

EXPLORE_GOLDEN = {
    (0, False, 1): "c9e581957566a0deb2894835478fdc304958005f8ff178c7ced726f5d23aae6e",
    (1, False, 1): "0606617747b07e7160601eb1108a43b7e7b9af8ea0b56dd540a52b0a6e478438",
    (2, False, 1): "a36aa4c26ef146433bfeb35174927c6d4040be6b6eee0d69de4a6ab53b1c6c56",
    (3, False, 1): "75c068cabf5530fba5cd5c471be46f68638fc6cafd2304e9e0e81739988ad02e",
    (4, False, 1): "326d766d6b3418fad5e12d5d9e4c2ec4da0b5e079c2cc78ee7a778d00a20a1dd",
    (5, True, 2): "d48e0cc03760071baadc55a72f02b61f4f035fd127827b1508c49c2d785ea699",
}


def _drill_cli_digest(argv, tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "drill.json"
    code = main(list(argv) + ["--json", str(path)])
    stdout = capsys.readouterr().out.replace(str(path), "<json>")
    assert code == 0, stdout
    return hashlib.sha256(stdout.encode() + b"\0" + path.read_bytes()).hexdigest()


def _explore_digest(result) -> str:
    parts = [
        result.fingerprint,
        ",".join(map(str, result.trace)),
        "|".join(sorted(result.coverage)),
        f"{result.committed} {result.aborted} {result.sim_time!r} {result.pending}",
        *(json.dumps(v.to_dict(), sort_keys=True) for v in result.violations),
    ]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()


@pytest.mark.parametrize("argv", sorted(DRILL_GOLDEN))
def test_drill_cli_matches_golden(argv, tmp_path, capsys):
    assert _drill_cli_digest(argv, tmp_path, capsys) == DRILL_GOLDEN[argv]


@pytest.mark.parametrize("k,durability,n_coordinators", sorted(EXPLORE_GOLDEN))
def test_explore_run_matches_golden(k, durability, n_coordinators):
    from repro.explore.harness import ExploreSpec, run_once
    from repro.explore.trace import RandomChooser

    spec = ExploreSpec(durability=durability, n_coordinators=n_coordinators)
    result = run_once(spec, RandomChooser(random.Random(k)))
    assert _explore_digest(result) == EXPLORE_GOLDEN[(k, durability, n_coordinators)]
