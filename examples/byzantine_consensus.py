#!/usr/bin/env python3
"""Byzantine consensus scenario: state-machine replication front-end.

Models the paper's consensus framework (proposers / acceptors /
learners) under three regimes, each a declarative scenario spec:

  1. best case — one correct proposer, synchrony: learners learn in
     2 message delays through a class-1 quorum;
  2. contention — two proposers race in the initial view; the election
     module converges on a single decision;
  3. a Byzantine proposer equivocates; the view change recovers and
     agreement holds.

Run:  python examples/byzantine_consensus.py
"""

from repro.consensus.proposer import EquivocatingProposer
from repro.scenarios import (
    PROPOSER,
    ByzantineRole,
    FaultPlan,
    Propose,
    ScenarioSpec,
    run,
)


def regime_best_case() -> None:
    print("1. Best case (single proposer, full synchrony):")
    result = run(ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        workload=(Propose(0.0, ("put", "x", 1)),),
        horizon=60.0,
    ))
    for learner, delay in sorted(result.learner_delays.items()):
        print(f"   {learner}: learned in {delay} message delays")


def regime_contention() -> None:
    print("\n2. Contention (two proposers race):")
    result = run(ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        workload=(
            Propose(0.0, "cmd-A", proposer=0),
            Propose(0.0, "cmd-B", proposer=1),
        ),
        horizon=600.0,
    ))
    print(f"   learned: {result.learned}")
    report = result.consensus
    print(f"   agreement: {'OK' if report.agreement_ok else 'VIOLATED'}, "
          f"validity: {'OK' if report.validity_ok else 'VIOLATED'}")
    assert report.ok


def regime_byzantine_proposer() -> None:
    print("\n3. Byzantine proposer equivocates (A to half, B to half):")
    result = run(ScenarioSpec(
        protocol="rqs-consensus",
        rqs="example6",
        faults=FaultPlan(
            byzantine=(
                ByzantineRole(0, EquivocatingProposer, role=PROPOSER),
            ),
        ),
        workload=(
            Propose(0.0, "EVIL", proposer=0),
            Propose(1.0, "GOOD", proposer=1),
        ),
        horizon=600.0,
    ))
    learned = result.learned
    values = set(learned.values())
    print(f"   learned: {learned}")
    print(f"   single decision despite equivocation: {len(values) == 1}")
    assert len(values) == 1 and len(learned) == 3


def main() -> None:
    regime_best_case()
    regime_contention()
    regime_byzantine_proposer()


if __name__ == "__main__":
    main()
