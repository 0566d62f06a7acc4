"""The three intersection properties of refined quorum systems.

These are free functions over explicit quorum families so they can be used
both by :class:`repro.core.rqs.RefinedQuorumSystem` (validation) and by the
lower-bound experiments (which need *negation witnesses*: concrete sets
``Q1, Q2, Q, B'1, B2`` demonstrating that a property fails, exactly as in
the proofs of Theorems 3 and 6).

Notation follows Definition 2 of the paper:

* Property 1: ``∀ Q, Q' ∈ RQS: Q ∩ Q' ∉ B``.
* Property 2: ``∀ Q1, Q'1 ∈ QC1, ∀ Q ∈ RQS, ∀ B1, B2 ∈ B:
  Q1 ∩ Q'1 ∩ Q ⊄ B1 ∪ B2`` — i.e. the triple intersection is *large*.
* Property 3: ``∀ Q2 ∈ QC2, ∀ Q ∈ RQS, ∀ B ∈ B:
  P3a(Q2, Q, B) ∨ P3b(Q2, Q, B)`` where

  - ``P3a(Q2, Q, B)``: ``Q2 ∩ Q \\ B ∉ B`` (the difference is basic), and
  - ``P3b(Q2, Q, B)``: ``QC1 ≠ ∅`` and
    ``∀ Q1 ∈ QC1: Q1 ∩ Q2 ∩ Q \\ B ≠ ∅``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Sequence, Tuple

from repro.core.adversary import Adversary, as_subset

Subset = FrozenSet[Hashable]


@dataclass(frozen=True)
class P1Witness:
    """Two quorums whose intersection lies in the adversary structure."""

    q: Subset
    q_prime: Subset

    def describe(self) -> str:
        return (
            f"P1 violated: Q={set(self.q)} and Q'={set(self.q_prime)} "
            f"intersect in a corruptible set {set(self.q & self.q_prime)}"
        )


@dataclass(frozen=True)
class P2Witness:
    """Class-1 quorums and a quorum whose triple intersection is not large."""

    q1: Subset
    q1_prime: Subset
    q: Subset
    b1: Subset
    b2: Subset

    def describe(self) -> str:
        triple = self.q1 & self.q1_prime & self.q
        return (
            f"P2 violated: Q1∩Q'1∩Q = {set(triple)} is covered by "
            f"B1={set(self.b1)} ∪ B2={set(self.b2)}"
        )


@dataclass(frozen=True)
class P3Witness:
    """The negation witness used in the Theorem 3/6 proofs.

    ``q2 ∩ q \\ b1_prime = b2 ∈ B`` (P3a fails) and
    ``q1 ∩ q2 ∩ q \\ b1_prime = ∅`` (P3b fails for ``q1``).

    The derived sets ``b0 = Q1∩Q2∩Q`` and ``b1 = Q2∩Q∩B'1`` are exposed
    because the proof constructions manipulate them directly.
    """

    q1: Optional[Subset]
    q2: Subset
    q: Subset
    b1_prime: Subset
    b2: Subset

    @property
    def b0(self) -> Subset:
        if self.q1 is None:
            return frozenset()
        return self.q1 & self.q2 & self.q

    @property
    def b1(self) -> Subset:
        return self.q2 & self.q & self.b1_prime

    def describe(self) -> str:
        return (
            f"P3 violated: Q2∩Q\\B'1 = {set(self.b2)} ∈ B and "
            f"Q1∩Q2∩Q\\B'1 = ∅ for Q1={set(self.q1) if self.q1 else None}, "
            f"Q2={set(self.q2)}, Q={set(self.q)}, B'1={set(self.b1_prime)}"
        )


def p3a(adversary: Adversary, q2: Subset, q: Subset, b: Subset) -> bool:
    """``P3a(Q2, Q, B)``: the set difference ``Q2 ∩ Q \\ B`` is basic."""
    return adversary.is_basic((q2 & q) - b)


def p3b(
    qc1: Sequence[Subset], q2: Subset, q: Subset, b: Subset
) -> bool:
    """``P3b(Q2, Q, B)``: every class-1 quorum meets ``Q2 ∩ Q \\ B``.

    Requires ``QC1`` to be non-empty (footnote 1 of Definition 2).
    """
    if not qc1:
        return False
    difference = (q2 & q) - b
    return all(q1 & difference for q1 in qc1)


def check_property1(
    adversary: Adversary, quorums: Sequence[Subset]
) -> Optional[P1Witness]:
    """Check Property 1; return a witness of violation or ``None``."""
    quorums = list(quorums)
    for i, q in enumerate(quorums):
        for q_prime in quorums[i:]:
            if adversary.contains(q & q_prime):
                return P1Witness(q, q_prime)
    return None


def check_property2(
    adversary: Adversary,
    qc1: Sequence[Subset],
    quorums: Sequence[Subset],
) -> Optional[P2Witness]:
    """Check Property 2; return a witness of violation or ``None``.

    "Not a subset of the union of any two elements of B" is exactly
    ``Adversary.is_large``; a witness needs the explicit covering pair,
    which we recover from the maximal sets.
    """
    qc1 = list(qc1)
    for i, q1 in enumerate(qc1):
        for q1_prime in qc1[i:]:
            pair = q1 & q1_prime
            for q in quorums:
                triple = pair & q
                if adversary.is_large(triple):
                    continue
                b1, b2 = _covering_pair(adversary, triple)
                return P2Witness(q1, q1_prime, q, b1, b2)
    return None


def check_property3(
    adversary: Adversary,
    qc1: Sequence[Subset],
    qc2: Sequence[Subset],
    quorums: Sequence[Subset],
) -> Optional[P3Witness]:
    """Check Property 3; return a witness of violation or ``None``.

    The quantification over ``B ∈ B`` only needs to range over maximal
    sets *unioned with nothing*: if P3a and P3b both fail for some ``B``,
    they also fail for any superset of ``B`` in ``B`` — P3a's difference
    only shrinks and P3b's intersection only shrinks.  But the converse is
    not true, so for soundness we must check *all* elements, not just
    maximal ones.  We enumerate ``B`` lazily, largest-first, because
    larger ``B`` fail faster in practice.

    P3a and P3b see the pair ``(Q2, Q)`` only through ``Q2 ∩ Q``, so
    each distinct intersection is checked once; the iteration order is
    unchanged, hence so is the first witness (an earlier pair with the
    same failing intersection would have been returned first).
    """
    qc1 = list(qc1)
    passed = set()
    for q2 in qc2:
        for q in quorums:
            base = q2 & q
            if base in passed:
                continue
            if not base:
                # An empty intersection fails P3a (∅ ∈ B by closure) and
                # P3b (it meets no class-1 quorum) for B = ∅.
                return P3Witness(
                    _failing_q1(qc1, q2, q, frozenset()),
                    q2, q, frozenset(), frozenset(),
                )
            # Only elements B that actually intersect Q2∩Q matter: P3a and
            # P3b depend on B only through B ∩ (Q2∩Q).  Enumerate subsets
            # of Q2∩Q that lie in B (via restriction) instead of all of B.
            restricted = adversary.restricted_to(base)
            for b in restricted.enumerate():
                if p3a(adversary, q2, q, b):
                    continue
                if p3b(qc1, q2, q, b):
                    continue
                q1_witness = _failing_q1(qc1, q2, q, b)
                return P3Witness(q1_witness, q2, q, b, base - b)
            passed.add(base)
    return None


def _failing_q1(
    qc1: Sequence[Subset], q2: Subset, q: Subset, b: Subset
) -> Optional[Subset]:
    """The class-1 quorum for which P3b fails (``None`` if QC1 is empty)."""
    difference = (q2 & q) - b
    for q1 in qc1:
        if not (q1 & difference):
            return q1
    return None


def _covering_pair(
    adversary: Adversary, target: Subset
) -> Tuple[Subset, Subset]:
    """Find ``B1, B2 ∈ B`` with ``target ⊆ B1 ∪ B2`` (caller guarantees
    existence, i.e. ``target`` is not large)."""
    for b1 in adversary.maximal_sets():
        remainder = target - b1
        if adversary.contains(remainder):
            return frozenset(b1 & target), frozenset(remainder)
    raise AssertionError("caller promised target is not large")


def negate_property3(
    adversary: Adversary,
    qc1: Sequence[Subset],
    qc2: Sequence[Subset],
    quorums: Sequence[Subset],
) -> Optional[P3Witness]:
    """Public alias used by the Theorem 3/6 experiment drivers.

    Returns the first P3 negation witness (with its ``b0``/``b1`` derived
    sets) or ``None`` when Property 3 holds.
    """
    return check_property3(adversary, qc1, qc2, quorums)


class NormalizedFamily(tuple):
    """A family in normal form: distinct frozensets ordered by
    ``(size, sorted member reprs)``.  Only :func:`normalize_family` (and
    constructions whose enumeration order *is* that order) build one,
    so normalizing it again is the identity and costs nothing."""

    __slots__ = ()


def normalize_family(family: Iterable[Iterable[Hashable]]) -> Tuple[Subset, ...]:
    """Normalize a family of iterables to a deduplicated tuple of frozensets.

    Order is made deterministic (sorted by size then repr) so that property
    checking and witness extraction are reproducible.
    """
    if type(family) is NormalizedFamily:
        return family
    unique = {as_subset(member) for member in family}
    # One repr per server, not one per (member, server) pair.
    name: Dict[Hashable, str] = {}
    for member in unique:
        for server in member:
            if server not in name:
                name[server] = repr(server)
    lookup = name.__getitem__
    return NormalizedFamily(
        sorted(unique, key=lambda s: (len(s), sorted(map(lookup, s))))
    )
