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
from repro.errors import QuorumSystemError

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


def family_masks(
    adversary: Adversary, family: Iterable[Subset]
) -> Tuple[Tuple[Subset, ...], Tuple[int, ...]]:
    """``family`` as a tuple, and one mask per member in the same order
    over ``adversary``'s bit order (a family that carries its masks is
    handed through, not copied).  The properties are stated for subsets
    of ``S``; a member with an element outside it is refused."""
    if not isinstance(family, tuple):
        family = tuple(family)
    masks = adversary.masks(family)
    if None in masks:
        raise QuorumSystemError("quorums must be subsets of S")
    return family, masks


def check_property1(
    adversary: Adversary, quorums: Sequence[Subset]
) -> Optional[P1Witness]:
    """Check Property 1; return a witness of violation or ``None``."""
    return property1_witness(adversary, *family_masks(adversary, quorums))


def check_property2(
    adversary: Adversary,
    qc1: Sequence[Subset],
    quorums: Sequence[Subset],
) -> Optional[P2Witness]:
    """Check Property 2; return a witness of violation or ``None``."""
    return property2_witness(
        adversary,
        *family_masks(adversary, qc1),
        *family_masks(adversary, quorums),
    )


def check_property3(
    adversary: Adversary,
    qc1: Sequence[Subset],
    qc2: Sequence[Subset],
    quorums: Sequence[Subset],
) -> Optional[P3Witness]:
    """Check Property 3; return a witness of violation or ``None``.

    Whether a pair ``(Q2, Q)`` fails is decided on the maximal sets of
    ``B`` alone (:func:`_fails_property3` says why that is sound *and*
    complete); elements of ``B`` are enumerated only to name the first
    witness of the one failing pair (:func:`_first_p3_witness`).
    """
    return property3_witness(
        adversary,
        *family_masks(adversary, qc1),
        *family_masks(adversary, qc2),
        *family_masks(adversary, quorums),
    )


# The checks proper: integer loops over family masks (``*_masks[i]`` is
# the mask of the family's ``i``-th member).  A system that holds its
# masks (:class:`repro.core.rqs.RefinedQuorumSystem`) calls these; the
# ``check_property*`` entry points above convert and delegate.  Each
# property is *decided* by a ``property*_failing`` search, which returns
# the indices of the first failing instance (or ``None``) and builds
# nothing; its ``property*_witness`` names that instance's witness.
# Each distinct intersection is decided once; the walk is in index
# order, so the witness is that of the first failing index pair (an
# earlier pair with the same failing intersection would have been
# returned first).


def property1_failing(
    adversary: Adversary, masks: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """``(i, j)``, ``i <= j``, of the first two quorums whose
    intersection is in ``B``."""
    corruptible = adversary.contains_mask
    passed = set()
    for i, q in enumerate(masks):
        for j in range(i, len(masks)):
            meet = q & masks[j]
            if meet in passed:
                continue
            if corruptible(meet):
                return i, j
            passed.add(meet)
    return None


def property1_witness(
    adversary: Adversary, quorums: Sequence[Subset], masks: Sequence[int]
) -> Optional[P1Witness]:
    failing = property1_failing(adversary, masks)
    if failing is None:
        return None
    i, j = failing
    return P1Witness(quorums[i], quorums[j])


def property2_failing(
    adversary: Adversary, qc1_masks: Sequence[int], masks: Sequence[int]
) -> Optional[Tuple[int, int, int]]:
    """``(i, j, k)`` of the first ``QC1[i] ∩ QC1[j] ∩ RQS[k]`` that is
    not large — "not a subset of the union of any two elements of B" is
    exactly ``Adversary.is_large_mask``."""
    large = adversary.is_large_mask
    pairs = set()
    passed = set()
    for i, q1 in enumerate(qc1_masks):
        for j in range(i, len(qc1_masks)):
            pair = q1 & qc1_masks[j]
            if pair in pairs:
                continue
            pairs.add(pair)
            for k, q in enumerate(masks):
                triple = pair & q
                if triple in passed:
                    continue
                if not large(triple):
                    return i, j, k
                passed.add(triple)
    return None


def property2_witness(
    adversary: Adversary,
    qc1: Sequence[Subset],
    qc1_masks: Sequence[int],
    quorums: Sequence[Subset],
    masks: Sequence[int],
) -> Optional[P2Witness]:
    """The first failing triple, with the explicit covering pair
    recovered from the maximal sets."""
    failing = property2_failing(adversary, qc1_masks, masks)
    if failing is None:
        return None
    i, j, k = failing
    b1, b2 = _covering_pair(
        adversary, qc1_masks[i] & qc1_masks[j] & masks[k]
    )
    return P2Witness(qc1[i], qc1[j], quorums[k], b1, b2)


def property3_failing(
    adversary: Adversary,
    qc1_masks: Sequence[int],
    qc2_masks: Sequence[int],
    masks: Sequence[int],
) -> Optional[Tuple[int, int]]:
    """``(i, j)`` of the first pair ``(QC2[i], RQS[j])`` that fails
    Property 3, with no element of ``B`` enumerated.  P3a and P3b see
    the pair only through ``Q2 ∩ Q``, so each distinct intersection is
    decided once, on the maximal sets of ``B``
    (:func:`_fails_property3`)."""
    passed = set()
    for i, q2 in enumerate(qc2_masks):
        for j, q in enumerate(masks):
            base = q2 & q
            if base in passed:
                continue
            if _fails_property3(adversary, qc1_masks, base):
                return i, j
            passed.add(base)
    return None


def property3_witness(
    adversary: Adversary,
    qc1: Sequence[Subset],
    qc1_masks: Sequence[int],
    qc2: Sequence[Subset],
    qc2_masks: Sequence[int],
    quorums: Sequence[Subset],
    masks: Sequence[int],
) -> Optional[P3Witness]:
    """The first failing pair, walked element by element for its
    witness (:func:`_first_p3_witness`)."""
    failing = property3_failing(adversary, qc1_masks, qc2_masks, masks)
    if failing is None:
        return None
    i, j = failing
    return _first_p3_witness(adversary, qc1, qc2[i], quorums[j])


def _fails_property3(
    adversary: Adversary, qc1_masks: Sequence[int], base: int
) -> bool:
    """Is there a ``B ∈ B`` for which P3a and P3b both fail on an
    intersection ``base = Q2 ∩ Q``?

    The quantification over ``B`` needs the maximal sets only: if P3a
    and P3b both fail for some ``B`` they also fail for every superset
    of ``B`` in ``B`` — P3a's difference only shrinks (and ``B`` is
    subset-closed), P3b's intersections only shrink.  So the answer is
    yes iff for some maximal ``M`` the difference ``d = base \\ M`` is in
    ``B`` and (``QC1`` is empty or some class-1 quorum misses ``d``).
    Some ``base \\ M`` is in ``B`` iff ``base`` is not large, which is
    asked first.
    """
    if adversary.is_large_mask(base):
        return False
    corruptible = adversary.contains_mask
    for difference in {base & ~m for m in adversary.maximal_masks}:
        if corruptible(difference) and not (
            qc1_masks and all(q1 & difference for q1 in qc1_masks)
        ):
            return True
    return False


def _first_p3_witness(
    adversary: Adversary, qc1: Sequence[Subset], q2: Subset, q: Subset
) -> P3Witness:
    """The first ``B`` — in the order of ``Adversary.enumerate`` on the
    restriction to ``Q2 ∩ Q``, so not necessarily a maximal one — for
    which P3a and P3b both fail on a pair that :func:`_fails_property3`
    has decided fails (:func:`property3_failing`).  Every earlier
    pair passed, so this is the first witness of the whole check; it is
    the only place Property 3 enumerates elements of ``B``."""
    base = q2 & q
    if not base:
        # An empty intersection fails P3a (∅ ∈ B by closure) and P3b
        # (it meets no class-1 quorum) for B = ∅.
        return P3Witness(
            _failing_q1(qc1, q2, q, frozenset()),
            q2, q, frozenset(), frozenset(),
        )
    # P3a and P3b depend on B only through B ∩ (Q2∩Q): enumerate the
    # subsets of Q2∩Q that lie in B (via restriction), largest maximal
    # set first, instead of all of B.
    for b in adversary.restricted_to(base).enumerate():
        if p3a(adversary, q2, q, b) or p3b(qc1, q2, q, b):
            continue
        return P3Witness(_failing_q1(qc1, q2, q, b), q2, q, b, base - b)
    raise AssertionError("caller promised the pair fails Property 3")


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
    adversary: Adversary, target: int
) -> Tuple[Subset, Subset]:
    """Find ``B1, B2 ∈ B`` with ``target ⊆ B1 ∪ B2`` (caller guarantees
    existence, i.e. ``target`` is not large)."""
    for b1 in adversary.maximal_masks:
        remainder = target & ~b1
        if adversary.contains_mask(remainder):
            return adversary.members(b1 & target), adversary.members(remainder)
    raise AssertionError("caller promised target is not large")


class NormalizedFamily(tuple):
    """A family in normal form: distinct frozensets ordered by
    ``(size, sorted member reprs)``.  Only :func:`normalize_family` (and
    constructions whose enumeration order *is* that order) build one,
    so normalizing it again is the identity and costs nothing.

    An enumeration that knows its members' positions in the
    ``repr``-ordered ground set carries the masks it enumerated them
    with (:meth:`over`): ``masks[j]`` is member ``j`` with bit ``i`` for
    ``servers[i]``.  The family owns them — ``Adversary.masks`` hands
    them back to any adversary whose ``servers`` is that very tuple, so
    a construction-born family is never converted.  A family sorted
    into normal form carries none (``servers is None``).
    """

    servers: Optional[Tuple[Hashable, ...]] = None
    masks: Optional[Tuple[int, ...]] = None

    @classmethod
    def over(
        cls,
        servers: Tuple[Hashable, ...],
        members: Iterable[Subset],
        masks: Tuple[int, ...],
    ) -> "NormalizedFamily":
        """``members`` (already in normal form) with their ``masks``
        over the bit order ``servers``."""
        family = cls(members)
        family.servers = servers
        family.masks = masks
        return family


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
