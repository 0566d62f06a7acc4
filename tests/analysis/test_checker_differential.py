"""Differential harness: the register checker vs. the reference checkers.

Every cell below runs one randomized scenario **twice** — once at
``TraceLevel.FULL`` (the checker replayed over the retained records,
``RunResult.atomicity``) and once at ``TraceLevel.METRICS`` (the same
checker live, records discarded as they complete).  The streaming
pipeline executes the same schedule at both retention modes
(``RandomMix.stream()`` consumes the RNG in historical order — pinned
by tests/scenarios/test_streaming.py), so both verdicts judge the
*same* execution, and each must equal the verdict of the reference the
stamp order is checked against on the FULL records: the SWMR value
rules for SW cells, Wing–Gong linearizability for MW cells (both kept
verbatim in ``test_register_checker_oracle.py``).

The generator is seeded, so the histories are reproducible; it draws
small specs (1–4 keys, 2–4 writers, a handful of ops) and perturbs ~60%
of them with in-tolerance faults — a single server crash, or a lossy
window dropping messages to or from one server.  The plain cells cover
every storage row unbatched (7 × 75 = 525 histories); the knob cells
cover the fast paths: ``batch_size`` 4 on every row that can run it,
``bounded_history`` and a strategy-drawn quorum
(``quorum_strategy="optimal"`` on the capacitated ``grid-hetero``).

Why ``naive`` only appears in SW cells: naive's reads return a stamp
without writing it back, so a later writer's discovery can stamp below
a value already read — its multi-writer stamp order is no
linearization, and the register checker *refuses* those runs
(``unsound-stamps``, pinned in tests/scenarios/test_runner.py) rather
than judge them by it.  naive's greedy flaw is still covered by its SW
cells and the E1 counterexample.
"""

import random
from typing import NamedTuple, Tuple

import pytest

from repro.scenarios import RandomMix, ScenarioSpec, resolve_rqs, run
from repro.scenarios.faults import Crash, Drop, FaultPlan
from tests.analysis.test_register_checker_oracle import (
    check_swmr_atomicity,
    is_linearizable,
)

MASTER_SEED = "rqs-differential-v1"


class Cell(NamedTuple):
    protocol: str
    mode: str  # "sw" | "mw"
    runs: int
    batch_size: int = 1
    bounded_history: bool = False
    rqs: object = None
    quorum_strategy: object = None

    @property
    def label(self) -> str:
        knobs = [f"batch{self.batch_size}"] if self.batch_size != 1 else []
        knobs += ["bounded"] if self.bounded_history else []
        knobs += [f"{self.rqs}-{self.quorum_strategy}"] if self.rqs else []
        return "-".join((self.protocol, self.mode, *knobs))


#: RUNS_PER_CELL histories for each storage row unbatched.
RUNS_PER_CELL = 75  # 7 cells x 75 = 525 histories >= 500.
PLAIN = tuple(
    Cell(protocol, mode, RUNS_PER_CELL)
    for protocol, mode in (
        ("rqs-storage", "sw"),
        ("rqs-storage", "mw"),
        ("abd", "sw"),
        ("abd", "mw"),
        ("fastabd", "sw"),
        ("fastabd", "mw"),
        ("naive", "sw"),  # MW refused: see module docstring.
    )
)
#: The fast paths, KNOB_RUNS histories each.
KNOB_RUNS = 25
KNOBS = (
    *(
        Cell(protocol, mode, KNOB_RUNS, batch_size=4)
        for protocol in ("rqs-storage", "abd", "fastabd")
        for mode in ("sw", "mw")
    ),
    Cell("naive", "sw", KNOB_RUNS, batch_size=4),
    *(
        Cell("rqs-storage", mode, KNOB_RUNS, bounded_history=True)
        for mode in ("sw", "mw")
    ),
    # A crash here leaves clients blocked on a drawn quorum that lost a
    # server (15 of the 25 runs): histories with operations pending.
    Cell("rqs-storage", "mw", KNOB_RUNS, rqs="grid-hetero",
         quorum_strategy="optimal"),
)
CELLS = PLAIN + KNOBS


def _fault_plan(rng: random.Random, servers: Tuple,
                horizon: float) -> FaultPlan:
    """Nothing (40%), one server crash (30%), or a lossy window (30%).

    All draws stay inside every protocol's tolerance: each protocol
    here survives any single server crash, and a bounded lossy window
    against one server is strictly weaker than crashing it.
    """
    roll = rng.random()
    if roll < 0.4:
        return FaultPlan()
    server = rng.choice(servers)
    if roll < 0.7:
        return FaultPlan(
            crashes=(Crash(server, rng.uniform(0.0, horizon / 2)),)
        )
    after = rng.uniform(0.0, horizon / 2)
    until = after + rng.uniform(2.0, horizon / 4)
    if rng.random() < 0.5:
        lossy = Drop(dst=(server,), after=after, until=until,
                     label="lossy-to-server")
    else:
        lossy = Drop(src=(server,), after=after, until=until,
                     label="lossy-from-server")
    return FaultPlan(asynchrony=(lossy,))


def _specs(cell: Cell):
    protocol, mode = cell.protocol, cell.mode
    # The plain cells keep the seeds (and so the histories) they had
    # before the knob cells existed.
    salt = "" if cell in PLAIN else f":{cell.label}"
    rng = random.Random(f"{MASTER_SEED}:{protocol}:{mode}{salt}")
    rqs = cell.rqs or ("example6" if protocol == "rqs-storage" else None)
    servers = (
        tuple(resolve_rqs(rqs).servers) if rqs
        else tuple(range(1, 6))
    )
    specs = []
    for _ in range(cell.runs):
        horizon = rng.choice((40.0, 60.0, 80.0))
        specs.append(ScenarioSpec(
            protocol=protocol,
            rqs=rqs,
            readers=rng.randint(2, 3),
            n_keys=rng.randint(1, 4),
            n_writers=1 if mode == "sw" else rng.randint(2, 4),
            workload=(RandomMix(rng.randint(3, 8), rng.randint(3, 8),
                                horizon=horizon,
                                batch_size=cell.batch_size),),
            seed=rng.getrandbits(32),
            faults=_fault_plan(rng, servers, horizon),
            params={"bounded_history": True} if cell.bounded_history else {},
            quorum_strategy=cell.quorum_strategy,
        ))
    return specs


def test_cell_grid_meets_the_coverage_floor():
    assert sum(cell.runs for cell in PLAIN) >= 500


@pytest.mark.parametrize("cell", CELLS, ids=[cell.label for cell in CELLS])
def test_online_verdict_agrees_with_record_backed_checker(cell):
    disagreements = []
    for spec in _specs(cell):
        full = run(spec)
        streamed = run(spec.with_(trace_level="metrics"))

        # Same schedule at both retention modes.
        assert streamed.ops_begun() == full.ops_begun()
        assert streamed.ops_completed() == full.ops_completed()

        online = streamed.online
        assert online is not None, f"checker not wired for {spec!r}"
        assert online.mode == cell.mode
        assert online.checked_ops == streamed.ops_completed()
        replayed = full.atomicity
        assert replayed.overrun_unchecked == 0

        if cell.mode == "sw":
            reference = check_swmr_atomicity(full.records).atomic
        else:
            reference = is_linearizable(full.records)
        if not replayed.atomic == reference == online.atomic:
            disagreements.append(
                (spec, replayed.atomic, reference, online.atomic,
                 replayed.violations)
            )
    assert not disagreements, (
        f"{len(disagreements)} verdict disagreement(s); first: "
        f"replayed atomic={disagreements[0][1]}, reference "
        f"atomic={disagreements[0][2]}, online atomic="
        f"{disagreements[0][3]} on {disagreements[0][0]!r} "
        f"(replayed violations: {disagreements[0][4]})"
    )
