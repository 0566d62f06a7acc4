"""Searching for refined quorum systems given an adversary structure.

The paper lists "how many RQS can be found given some adversary structure"
as an open direction (Section 6).  This module provides practical tooling
for small universes:

* :func:`property1_family` — a greedy maximal sub-family of a candidate
  pool whose pairwise intersections are all basic (Property 1).
* :func:`classify_quorums` — given an adversary and a quorum family that
  satisfies Property 1, compute the *largest* legal ``QC1`` and ``QC2``
  (greedy maximal classification), which yields the most latency-favorable
  RQS over that family.
* :func:`search_rqs` — end-to-end: enumerate candidate quorums (all
  subsets of ``S`` above a size, or a provided family), keep a
  Property-1-satisfying family, classify, and return a validated RQS.

Everything here is exponential in ``|S|`` and intended for ``|S| ≤ ~14``:
``search_rqs(ThresholdAdversary(range(1, n + 1), k))`` takes 0.03 s for
``B_1`` over 10 servers, 0.06 s for ``B_2`` over 11, 0.18 s for ``B_2``
over 12 (920 quorums), 0.84 s over 13 and 2.7 s over 14 (3 935 quorums;
timed with ``time.perf_counter`` around that call).  The pool is
converted to masks once and the greedy passes decide a candidate on the
instances it adds; when each candidate re-ran the full Property 2 / 3
check on the class it would join, the same calls took 2.1 s, 5.6 s,
20 s and 182 s (and on frozenset algebra 17 s and 150 s for the first
two).
"""

from __future__ import annotations

from itertools import combinations
from typing import (
    FrozenSet,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

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


def _largest_first(subset: Subset):
    """The greedy order: larger sets first (they intersect more easily),
    ties by the sorted member reprs."""
    return (-len(subset), sorted(map(repr, subset)))


def property1_family(
    adversary: Adversary, candidates: Sequence[Subset]
) -> Tuple[Subset, ...]:
    """Greedy maximal sub-family of ``candidates`` satisfying Property 1.

    Candidates (subsets of ``S``; one that leaves it is refused) are
    considered largest-first, and a candidate is kept iff its
    intersection with every kept quorum (and itself) is basic.  The
    pool is converted to masks once; each probe is an ``&`` and one
    question to the adversary.
    """
    candidates, masks = props.family_masks(adversary, candidates)
    ordered = sorted(
        dict(zip(candidates, masks)).items(),
        key=lambda item: _largest_first(item[0]),
    )
    corruptible = adversary.contains_mask
    kept: List[Subset] = []
    kept_masks: List[int] = []
    basic: Set[int] = set()  # intersections already found outside B
    for candidate, mask in ordered:
        if corruptible(mask):
            continue
        for other in kept_masks:
            meet = mask & other
            if meet in basic:
                continue
            if corruptible(meet):
                break
            basic.add(meet)
        else:
            kept.append(candidate)
            kept_masks.append(mask)
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

    A candidate is decided on what it *adds*.  The class it would join
    satisfies its property already (it was grown that way), so only the
    instances the candidate takes part in are new: for Property 2 the
    triples ``(c, Q1', Q)`` with ``Q1' ∈ QC1 ∪ {c}``, for Property 3 the
    pairs ``(c, Q)``.  Both inductions have their base: ``QC1 = ∅`` holds
    Property 2 vacuously, and the seed ``QC2 = QC1`` holds Property 3
    *because* ``QC1`` holds Property 2 — were P3a and P3b to fail for
    some ``(Q1, Q, B)``, a class-1 ``Q1'`` would miss ``Q1 ∩ Q \\ B``,
    putting ``Q1 ∩ Q1' ∩ Q`` inside ``B``: not large.  (The paper's
    "class-1 quorums are class-2 quorums", as a lemma.)
    """
    quorums, masks = props.family_masks(adversary, quorums)
    ordered = sorted(
        zip(quorums, masks), key=lambda item: _largest_first(item[0])
    )
    masks = tuple(dict.fromkeys(masks))

    qc1: List[Subset] = []
    qc1_masks: List[int] = []
    large: Set[int] = set()
    for candidate, mask in ordered:
        if _keeps_property2(adversary, mask, qc1_masks, masks, large):
            qc1.append(candidate)
            qc1_masks.append(mask)

    qc2: List[Subset] = list(qc1)
    qc2_masks = set(qc1_masks)
    # QC1 is fixed from here on, so an intersection that passed
    # Property 3 once passes for every later candidate.
    passed: Set[int] = set()
    for candidate, mask in ordered:
        if mask in qc2_masks:
            continue
        if _keeps_property3(adversary, mask, qc1_masks, masks, passed):
            qc2.append(candidate)
            qc2_masks.add(mask)
    return tuple(qc1), tuple(qc2)


def _keeps_property2(
    adversary: Adversary,
    candidate: int,
    qc1_masks: Sequence[int],
    masks: Sequence[int],
    large: Set[int],
) -> bool:
    """Is every triple ``c ∩ Q1' ∩ Q`` large, ``Q1' ∈ QC1 ∪ {c}``?
    ``large`` remembers the intersections already found large (a fact
    about ``B`` alone, so it outlives the candidate)."""
    is_large = adversary.is_large_mask
    for pair in {candidate & other for other in (*qc1_masks, candidate)}:
        for quorum in masks:
            triple = pair & quorum
            if triple in large:
                continue
            if not is_large(triple):
                return False
            large.add(triple)
    return True


def _keeps_property3(
    adversary: Adversary,
    candidate: int,
    qc1_masks: Sequence[int],
    masks: Sequence[int],
    passed: Set[int],
) -> bool:
    """Does every pair ``(c, Q)`` satisfy P3a or P3b for every ``B``?"""
    for quorum in masks:
        base = candidate & quorum
        if base in passed:
            continue
        if props._fails_property3(adversary, qc1_masks, base):
            return False
        passed.add(base)
    return True


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
