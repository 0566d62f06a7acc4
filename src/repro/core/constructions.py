"""Canonical refined-quorum-system constructions from the paper.

This module materializes every example of Section 2.2:

* :func:`majority_quorum_system` — Example 2 (crash-tolerant majorities).
* :func:`byzantine_quorum_system` — Example 3 (two-thirds quorums).
* :func:`dissemination_quorum_system` / :func:`masking_quorum_system` —
  Example 4 (Malkhi–Reiter systems as degenerate RQSs).
* :func:`fast_consensus_quorum_system` — Example 5 (``QC1 = QC2``).
* :func:`threshold_rqs` — Example 6: the general threshold family where
  quorums miss at most ``t`` servers, class-2 quorums miss at most ``r``
  and class-1 quorums miss at most ``q`` (``0 ≤ q ≤ r ≤ t``), under the
  ``B_k`` adversary.  :func:`threshold_rqs_predicted_valid` gives the
  paper's closed-form validity condition
  ``|S| > t + k + max(t, k + 2q, r + min(k, q))``.
* :func:`figure3_rqs` — Example 1 / Figure 3 (eight elements, ``k = 1``).
* :func:`example7_rqs` — Example 7 / Figure 4 (six servers, general
  non-threshold adversary).
* :func:`section12_rqs` — the 5-server system of the introductory
  Section 1.2 example (4-server fast quorums over crash failures).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import FrozenSet, Hashable, Iterable, Tuple

from repro.core.adversary import (
    Adversary,
    ExplicitAdversary,
    ThresholdAdversary,
    as_subset,
)
from repro.core.properties import NormalizedFamily
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import QuorumSystemError

Subset = FrozenSet[Hashable]


def subsets_missing_at_most(
    ground: Iterable[Hashable], i: int
) -> NormalizedFamily:
    """The family ``Q_i`` = all subsets of ``S`` with ``≥ |S| − i`` elements.

    This is the paper's ``Q_i`` notation (Section 2.2).  The result is
    in normal form — (size, sorted member reprs) — by construction:
    ``combinations`` over the ``repr``-sorted members enumerates each
    size in exactly that order, so nothing is sorted (or re-sorted by
    :class:`RefinedQuorumSystem`) afterwards.  It carries its masks over
    that ``repr`` order (bit ``j`` is the ``j``-th member of the sorted
    ground set — the order every :class:`Adversary` over ``S`` uses),
    and one enumeration serves every caller that asks for the same
    ``(S, i)`` (:func:`_enumerate_missing_at_most`).
    """
    servers = tuple(sorted(as_subset(ground), key=repr))
    n = len(servers)
    if i < 0 or i >= n:
        raise QuorumSystemError(
            f"missing-count i={i} must satisfy 0 <= i < |S|={n}"
        )
    return _enumerate_missing_at_most(servers, i)


@lru_cache(maxsize=32)
def _enumerate_missing_at_most(
    servers: Tuple[Hashable, ...], i: int
) -> NormalizedFamily:
    """``Q_i`` over ``servers`` (already in ``repr`` order), members and
    masks enumerated side by side: ``combinations`` walks the servers
    and their bits in the same positions, and distinct bits sum to
    their union.

    Shared per ``(servers, i)``, least recently used of 32 dropped: a
    grid over a thousand threshold *systems* (E11) asks for twenty
    families, and a large one-off family (``n = 16``: 6 885 quorums) is
    held no longer than 31 other requests.  The key is the ground set's
    value, so nothing outlives or aliases a caller's objects.
    """
    n = len(servers)
    bits = [1 << j for j in range(n)]
    members: list = []
    masks: list = []
    for size in range(n - i, n + 1):
        members.extend(map(frozenset, combinations(servers, size)))
        masks.extend(map(sum, combinations(bits, size)))
    return NormalizedFamily.over(servers, members, tuple(masks))


@lru_cache(maxsize=32)
def _threshold_adversary(
    servers: Tuple[Hashable, ...], k: int
) -> ThresholdAdversary:
    """``B_k`` over ``servers``, shared per ``(servers, k)`` like the
    families of :func:`_enumerate_missing_at_most`: the E11 grid's 953
    threshold systems stand on 25 adversaries.  An adversary's only
    lazy state (``maximal_masks``) is a function of ``(S, k)``, so
    every system over the same pair may hold the same one; never
    mutate an adversary a construction returned.
    """
    return ThresholdAdversary(servers, k)


def _tail_missing_at_most(family: NormalizedFamily, i: int) -> NormalizedFamily:
    """``Q_i`` cut out of an enumerated ``Q_j`` (``i ≤ j``).

    :func:`subsets_missing_at_most` enumerates sizes in ascending order,
    so the subsets with ``≥ n − i`` elements are the last
    ``Σ_{s ≥ n−i} C(n, s)`` of it — the nested ``Q_q ⊆ Q_r ⊆ Q_t`` of a
    threshold system are tails of one enumeration, the same frozenset
    objects and the same masks, still in normal form.
    """
    n = len(family.servers)
    start = len(family) - sum(comb(n, size) for size in range(n - i, n + 1))
    if not start:
        return family
    return NormalizedFamily.over(
        family.servers, family[start:], family.masks[start:]
    )


def default_servers(n: int) -> Tuple[int, ...]:
    """Server ids ``1..n`` used by all canonical constructions."""
    if n <= 0:
        raise QuorumSystemError(f"need a positive server count, got {n}")
    return tuple(range(1, n + 1))


# ---------------------------------------------------------------------------
# Examples 2-5: degenerate / classical systems expressed as RQSs
# ---------------------------------------------------------------------------

def majority_quorum_system(n: int) -> RefinedQuorumSystem:
    """Example 2: every majority is a quorum, ``B = {∅}``, ``QC1=QC2=∅``.

    The quorum system behind classical crash-tolerant algorithms (ABD,
    Paxos, ...): ``RQS = Q_⌊(n−1)/2⌋``.
    """
    servers = default_servers(n)
    adversary = ExplicitAdversary(servers)  # B = {∅}
    quorums = subsets_missing_at_most(servers, (n - 1) // 2)
    return RefinedQuorumSystem(adversary, quorums)


def byzantine_quorum_system(n: int) -> RefinedQuorumSystem:
    """Example 3: two-thirds quorums under ``B_⌊(n−1)/3⌋``, ``QC1=QC2=∅``."""
    servers = default_servers(n)
    k = (n - 1) // 3
    adversary = _threshold_adversary(servers, k)
    quorums = subsets_missing_at_most(servers, k)
    return RefinedQuorumSystem(adversary, quorums)


def dissemination_quorum_system(
    adversary: Adversary, quorums: Iterable[Iterable[Hashable]]
) -> RefinedQuorumSystem:
    """Example 4 (first half): a dissemination quorum system in the sense of
    Malkhi–Reiter is exactly an RQS with ``QC1 = QC2 = ∅``."""
    return RefinedQuorumSystem(adversary, quorums, qc1=(), qc2=())


def masking_quorum_system(
    adversary: Adversary, quorums: Iterable[Iterable[Hashable]]
) -> RefinedQuorumSystem:
    """Example 4 (second half): a masking quorum system is an RQS with
    ``QC1 = ∅`` and ``QC2 = RQS``.

    With ``QC1 = ∅``, P3b can never hold, so Property 3 degenerates to
    P3a for every quorum pair — the Malkhi–Reiter masking condition.
    """
    quorums = tuple(as_subset(q) for q in quorums)
    return RefinedQuorumSystem(adversary, quorums, qc1=(), qc2=quorums)


def fast_consensus_quorum_system(
    n: int, t: int, q: int, k: int = 0
) -> RefinedQuorumSystem:
    """Example 5: ``∅ ≠ QC1 = QC2 = Q_q`` over ``RQS = Q_t`` under ``B_k``.

    The quorum system behind Fast Paxos-style algorithms.  Valid iff
    ``n > 2t + k`` (Property 1) and ``n > 2q + t + 2k`` (Property 2) —
    Lamport's lower bounds for asynchronous consensus.
    """
    if not 0 <= q <= t:
        raise QuorumSystemError(f"need 0 <= q <= t, got q={q}, t={t}")
    servers = default_servers(n)
    adversary = _threshold_adversary(servers, k)
    quorums = subsets_missing_at_most(servers, t)
    fast = _tail_missing_at_most(quorums, q)
    return RefinedQuorumSystem(adversary, quorums, qc1=fast, qc2=fast)


# ---------------------------------------------------------------------------
# Example 6: the full threshold family
# ---------------------------------------------------------------------------

def threshold_rqs(
    n: int, t: int, k: int, q: int, r: int, validate: bool = True
) -> RefinedQuorumSystem:
    """Example 6: ``RQS = Q_t``, ``QC2 = Q_r``, ``QC1 = Q_q`` under ``B_k``.

    ``0 ≤ q ≤ r ≤ t < n`` is required.  With ``validate=True`` the result
    is checked against Properties 1–3 — quadratic in the number of
    quorums, which is exponential in ``n``: 4 ms for ``(10, 3, 1, 1, 3)``
    (176 quorums), 0.18 s for ``(14, 4, 2, 1, 4)`` (1 471), 5.4 s for
    ``(16, 5, 2, 1, 5)`` (6 885), so keep ``n ≤ ~16``.  (Measured with
    ``python -c "import time; from repro.core.constructions import
    threshold_rqs as f; s = time.perf_counter(); f(14, 4, 2, 1, 4);
    print(time.perf_counter() - s)"``; on frozensets the same three took
    49 ms, 5.7 s and 57 s.)  Use :func:`threshold_rqs_predicted_valid`
    for the closed-form condition when sweeping larger parameters.
    """
    if not 0 <= q <= r <= t < n:
        raise QuorumSystemError(
            f"need 0 <= q <= r <= t < n, got q={q}, r={r}, t={t}, n={n}"
        )
    servers = default_servers(n)
    adversary = _threshold_adversary(servers, k)
    quorums = subsets_missing_at_most(servers, t)
    qc2 = _tail_missing_at_most(quorums, r)
    qc1 = _tail_missing_at_most(qc2, q)
    return RefinedQuorumSystem(
        adversary, quorums, qc1=qc1, qc2=qc2, validate=validate
    )


def threshold_rqs_predicted_valid(
    n: int, t: int, k: int, q: int, r: int
) -> bool:
    """The paper's closed-form validity condition for Example 6.

    The RQS of :func:`threshold_rqs` satisfies

    * Property 1 iff ``n > 2t + k``,
    * Property 2 iff ``n > t + 2k + 2q``,
    * Property 3 iff ``n > t + r + k + min(k, q)``,

    i.e. overall iff ``n > t + k + max(t, k + 2q, r + min(k, q))``.
    """
    return n > t + k + max(t, k + 2 * q, r + min(k, q))


def threshold_rqs_predicted_properties(
    n: int, t: int, k: int, q: int, r: int
) -> Tuple[bool, bool, bool]:
    """Per-property closed-form predictions ``(P1, P2, P3)`` for Example 6."""
    p1 = n > 2 * t + k
    p2 = n > t + 2 * k + 2 * q
    p3 = n > t + r + k + min(k, q)
    return (p1, p2, p3)


def pbft_style_rqs(t: int) -> RefinedQuorumSystem:
    """The "important instantiation" of Example 6: ``n = 3t + 1`` servers,
    ``k = t`` Byzantine, all quorums class-2 (``r = t``) and the full
    server set the only class-1 quorum (``q = 0``)."""
    return threshold_rqs(3 * t + 1, t, t, 0, t)


# ---------------------------------------------------------------------------
# Example 1 / Figure 3
# ---------------------------------------------------------------------------

def figure3_rqs() -> RefinedQuorumSystem:
    """The Figure 3 example: eight elements, adversary ``B_1``, 4 quorums.

    ``Q = {3,4,5,6,7}`` and ``Q' = {1,2,3,4,7,8}`` are class-3 quorums,
    ``Q2 = {1,2,3,5,6}`` is class 2 and ``Q1`` is class 1.  The printed
    figure does not unambiguously list ``Q1``'s members; we use
    ``Q1 = {2,5,6,7,8}``, which reproduces every intersection cardinality
    the caption states: ``|Q2 ∩ Q'| = |Q2 ∩ Q1| = 2k+1 = 3`` and
    ``|Q2 ∩ Q ∩ Q1| = k+1 = 2``, with ``Q1`` meeting every quorum in at
    least ``2k+1`` elements.
    """
    servers = default_servers(8)
    adversary = _threshold_adversary(servers, 1)
    q = frozenset({3, 4, 5, 6, 7})
    q_prime = frozenset({1, 2, 3, 4, 7, 8})
    q2 = frozenset({1, 2, 3, 5, 6})
    q1 = frozenset({2, 5, 6, 7, 8})
    return RefinedQuorumSystem(
        adversary,
        quorums=(q, q_prime, q2, q1),
        qc1=(q1,),
        qc2=(q1, q2),
    )


# ---------------------------------------------------------------------------
# Example 7 / Figure 4
# ---------------------------------------------------------------------------

def example7_servers() -> Tuple[str, ...]:
    return ("s1", "s2", "s3", "s4", "s5", "s6")


def example7_adversary() -> ExplicitAdversary:
    """The general (non-threshold) adversary of Example 7:
    ``B = closure({ {s1,s2}, {s3,s4}, {s2,s4} })``."""
    servers = example7_servers()
    return ExplicitAdversary(
        servers, ({"s1", "s2"}, {"s3", "s4"}, {"s2", "s4"})
    )


def example7_rqs() -> RefinedQuorumSystem:
    """Example 7: six servers, three quorums, general adversary.

    ``Q1 = {s2,s4,s5,s6}`` is class 1; ``Q2 = {s1,s2,s3,s4,s5}`` and
    ``Q'2 = {s1,s2,s3,s4,s6}`` are class 2.  This is the system whose
    Property 3 subtlety Figure 4's executions illustrate.
    """
    adversary = example7_adversary()
    q1 = frozenset({"s2", "s4", "s5", "s6"})
    q2 = frozenset({"s1", "s2", "s3", "s4", "s5"})
    q2_prime = frozenset({"s1", "s2", "s3", "s4", "s6"})
    return RefinedQuorumSystem(
        adversary,
        quorums=(q1, q2, q2_prime),
        qc1=(q1,),
        qc2=(q1, q2, q2_prime),
    )


def example7_named_quorums() -> dict:
    return {
        "Q1": frozenset({"s2", "s4", "s5", "s6"}),
        "Q2": frozenset({"s1", "s2", "s3", "s4", "s5"}),
        "Q'2": frozenset({"s1", "s2", "s3", "s4", "s6"}),
    }


# ---------------------------------------------------------------------------
# Section 1.2: the introductory five-server crash example
# ---------------------------------------------------------------------------

def section12_rqs() -> RefinedQuorumSystem:
    """The Section 1.2 system: 5 servers, ``t = 2`` crash failures.

    Quorums are all subsets of ≥ 3 servers; class-1 quorums (enabling
    single-round operations) are subsets of ≥ 4 servers; the paper's
    Section 5 remarks that 3-server subsets act as class-2 quorums in the
    two-round variant.  ``k = 0`` (crash-only).
    """
    return threshold_rqs(n=5, t=2, k=0, q=1, r=2)
