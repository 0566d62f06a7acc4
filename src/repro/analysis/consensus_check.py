"""Consensus correctness verdicts over execution traces.

Checks the three properties of Section 4.1 on the operation records
produced by the consensus protocols of :mod:`repro.scenarios`:

* **Validity** — if all proposers are benign, every value learned by a
  benign learner was proposed;
* **Agreement** — no two benign learners learn different values;
* **Termination** — every correct learner learned (checked against an
  explicit set of learners expected to be correct).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence, Set, Tuple

from repro.sim.trace import OperationRecord


@dataclass
class ConsensusReport:
    """Outcome of checking one consensus execution."""

    proposed: Tuple[Any, ...]
    learned: Dict[Hashable, Any]
    agreement_ok: bool
    validity_ok: bool
    unterminated: Tuple[Hashable, ...]
    problems: Tuple[str, ...]

    @property
    def ok(self) -> bool:
        return (
            self.agreement_ok
            and self.validity_ok
            and not self.unterminated
        )


def check_consensus(
    records: Iterable[OperationRecord],
    benign_learners: Optional[Iterable[Hashable]] = None,
    correct_learners: Optional[Iterable[Hashable]] = None,
    all_proposers_benign: bool = True,
) -> ConsensusReport:
    """Evaluate Validity / Agreement / Termination on a trace.

    ``benign_learners`` filters whose "learn" records count (Byzantine
    learners may "learn" anything); ``correct_learners`` is the set that
    Termination obliges to learn — pass the learners that are correct and
    entitled to terminate in the scenario.
    """
    records = list(records)
    proposals = tuple(
        r.value for r in records if r.kind == "propose"
    )
    benign = None if benign_learners is None else set(benign_learners)

    learned: Dict[Hashable, Any] = {}
    problems: List[str] = []
    for record in records:
        if record.kind != "learn" or not record.complete:
            continue
        if benign is not None and record.process not in benign:
            continue
        if record.process in learned and learned[record.process] != record.result:
            problems.append(
                f"learner {record.process!r} learned twice with different "
                f"values: {learned[record.process]!r} then {record.result!r}"
            )
        learned[record.process] = record.result

    values = set(learned.values())
    agreement_ok = len(values) <= 1
    if not agreement_ok:
        problems.append(f"learners disagree: {sorted(map(repr, values))}")

    validity_ok = True
    if all_proposers_benign:
        for process, value in learned.items():
            if value not in proposals:
                validity_ok = False
                problems.append(
                    f"learner {process!r} learned unproposed value {value!r}"
                )

    unterminated: Tuple[Hashable, ...] = ()
    if correct_learners is not None:
        unterminated = tuple(
            l for l in correct_learners if l not in learned
        )
        if unterminated:
            problems.append(
                f"correct learners did not learn: {list(unterminated)}"
            )

    return ConsensusReport(
        proposed=proposals,
        learned=learned,
        agreement_ok=agreement_ok,
        validity_ok=validity_ok,
        unterminated=unterminated,
        problems=tuple(problems),
    )

