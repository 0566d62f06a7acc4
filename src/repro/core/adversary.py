"""Adversary structures (Definition 1 of the paper).

An *adversary structure* ``B`` for a ground set ``S`` is a family of subsets
of ``S`` that is closed under taking subsets: if ``B`` can be corrupted, so
can every subset of ``B``.  The elements of ``B`` are the sets of processes
that may simultaneously be Byzantine in a single execution.

Two concrete representations are provided:

* :class:`ThresholdAdversary` — the classical ``B_k`` structure containing
  every subset of cardinality at most ``k``.  Membership is a popcount.
* :class:`ExplicitAdversary` — an arbitrary structure represented by its
  *maximal* elements; membership reduces to a subset check against the
  maximal sets.

Both expose the same small interface (:class:`Adversary`), which is all the
rest of the library relies on.  The answers are computed on *masks*: server
``i`` of the ``repr``-sorted ground set is bit ``1 << i`` (the order
:class:`repro.core.rqs.QuorumIndex` takes from here), a subset of ``S`` is a
Python int, "in ``B``" is "inside one maximal mask" and "large" is "not
inside the union of two".  ``contains`` / ``is_basic`` / ``is_large`` on
iterables are the public API and convert once.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import combinations
from typing import (
    AbstractSet,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Optional,
    Tuple,
)

from repro.errors import AdversaryError

Element = Hashable
Subset = FrozenSet[Element]


def as_subset(elements: Iterable[Element]) -> Subset:
    """Normalize any iterable of elements into a ``frozenset``."""
    return frozenset(elements)


class Adversary(ABC):
    """Abstract adversary structure over a ground set ``S``.

    Subclasses must implement :meth:`maximal_sets` (the antichain of
    maximal elements).  Everything else is derived; a subclass with a
    closed form (:class:`ThresholdAdversary`) overrides the two mask
    answers :meth:`contains_mask` and :meth:`is_large_mask`.
    """

    def __init__(self, ground_set: Iterable[Element]):
        self._ground = as_subset(ground_set)
        if not self._ground:
            raise AdversaryError("ground set must be non-empty")
        self._servers: Tuple[Element, ...] = tuple(
            sorted(self._ground, key=repr)
        )
        self._bit: Dict[Element, int] = {
            server: 1 << i for i, server in enumerate(self._servers)
        }
        self._maximal_masks: Optional[Tuple[int, ...]] = None

    @property
    def ground_set(self) -> Subset:
        """The set ``S`` the structure is defined over."""
        return self._ground

    @property
    def servers(self) -> Tuple[Element, ...]:
        """``S`` in ``repr`` order (bit ``i`` is ``servers[i]``)."""
        return self._servers

    @property
    def bit(self) -> Dict[Element, int]:
        """server -> its bit."""
        return self._bit

    @abstractmethod
    def maximal_sets(self) -> Tuple[Subset, ...]:
        """Return the maximal elements of ``B`` (an antichain).

        The empty structure ``B = {∅}`` is represented by ``(frozenset(),)``.
        """

    # -- the mask view --------------------------------------------------------

    def mask(self, subset: Iterable[Element]) -> Optional[int]:
        """``subset`` as a mask — ``None`` when it has a member outside
        ``S``: such a set is not in ``B``, hence basic and large."""
        try:
            # Distinct members have distinct bits: their sum is the union.
            return sum(map(self._bit.__getitem__, frozenset(subset)))
        except KeyError:
            return None

    def masks(
        self, family: Iterable[Iterable[Element]]
    ) -> Tuple[Optional[int], ...]:
        """:meth:`mask` of every member of ``family``, in order.

        A family enumerated together with its masks over this very bit
        order (``NormalizedFamily.over`` — the threshold constructions)
        gets those back; any other family is converted here, once per
        call.  The test is on the ``servers`` tuple's value, so a family
        over another ground set, or over the same one in another order,
        is converted like any iterable.
        """
        carried = getattr(family, "masks", None)
        if carried is not None and family.servers == self._servers:
            return carried
        family = tuple(family)
        bit = self._bit.__getitem__
        try:
            return tuple(
                [sum(map(bit, frozenset(member))) for member in family]
            )
        except KeyError:
            return tuple(map(self.mask, family))

    def members(self, mask: int) -> Subset:
        """The subset of ``S`` a mask stands for."""
        return frozenset(
            server for i, server in enumerate(self._servers)
            if mask >> i & 1
        )

    @property
    def maximal_masks(self) -> Tuple[int, ...]:
        """:meth:`maximal_sets` as masks, in the same order."""
        maxima = self._maximal_masks
        if maxima is None:
            maxima = self._maximal_masks = self.masks(self.maximal_sets())
        return maxima

    def contains_mask(self, mask: int) -> bool:
        """``mask ∈ B``: it lies inside one maximal set."""
        for maximal in self.maximal_masks:
            if not mask & ~maximal:
                return True
        return False

    def is_large_mask(self, mask: int) -> bool:
        """``mask`` is not inside the union of two maximal sets."""
        for b1 in self.maximal_masks:
            # mask ⊆ b1 ∪ b2  ⇔  (mask \ b1) ⊆ b2 for some b2 ∈ B.
            if self.contains_mask(mask & ~b1):
                return False
        return True

    # -- the public answers, on iterables -------------------------------------

    def contains(self, subset: Iterable[Element]) -> bool:
        """Return ``True`` iff ``subset`` is an element of ``B``."""
        mask = self.mask(subset)
        return mask is not None and self.contains_mask(mask)

    def __contains__(self, subset: AbstractSet[Element]) -> bool:
        return self.contains(subset)

    def is_basic(self, subset: Iterable[Element]) -> bool:
        """Definition 5: ``subset`` is *basic* iff it is **not** in ``B``.

        A basic subset contains at least one benign process in every
        execution (Lemma 1 / Lemma 17 of the paper).
        """
        return not self.contains(subset)

    def is_large(self, subset: Iterable[Element]) -> bool:
        """Definition 5: ``subset`` is *large* iff it is not covered by the
        union of any two elements of ``B``.

        A large subset always contains a basic subset of benign processes
        (Lemma 2 / Lemma 18 of the paper).
        """
        mask = self.mask(subset)
        return mask is None or self.is_large_mask(mask)

    def enumerate(self) -> Iterator[Subset]:
        """Yield every element of ``B`` (exponential; small sets only)."""
        seen = set()
        for maximal in self.maximal_sets():
            ordered = sorted(maximal, key=repr)
            for size in range(len(ordered) + 1):
                for combo in combinations(ordered, size):
                    candidate = frozenset(combo)
                    if candidate not in seen:
                        seen.add(candidate)
                        yield candidate

    def restricted_to(self, subset: Iterable[Element]) -> "ExplicitAdversary":
        """The induced structure on a sub-universe ``subset`` of ``S``."""
        universe = as_subset(subset)
        if not universe <= self._ground:
            raise AdversaryError("restriction target is not a subset of S")
        return ExplicitAdversary(
            universe, {m & universe for m in self.maximal_sets()}
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        maxima = sorted(tuple(sorted(map(repr, m))) for m in self.maximal_sets())
        return f"{type(self).__name__}(|S|={len(self._ground)}, maxima={maxima})"


class ThresholdAdversary(Adversary):
    """The ``k``-bounded threshold adversary ``B_k``.

    Contains every subset of ``S`` of cardinality at most ``k``.  ``k = 0``
    yields the crash-only structure ``B = {∅}``.
    """

    def __init__(self, ground_set: Iterable[Element], k: int):
        super().__init__(ground_set)
        if k < 0:
            raise AdversaryError(f"threshold k must be >= 0, got {k}")
        if k > len(self._ground):
            raise AdversaryError(
                f"threshold k={k} exceeds |S|={len(self._ground)}"
            )
        self._k = k

    @property
    def k(self) -> int:
        """The corruption threshold."""
        return self._k

    def maximal_sets(self) -> Tuple[Subset, ...]:
        if self._k == 0:
            return (frozenset(),)
        return tuple(map(frozenset, combinations(self._servers, self._k)))

    # For B_k both mask answers are cardinality checks.

    def contains_mask(self, mask: int) -> bool:
        return mask.bit_count() <= self._k

    def is_large_mask(self, mask: int) -> bool:
        return mask.bit_count() > 2 * self._k


class ExplicitAdversary(Adversary):
    """An adversary structure given by an explicit collection of sets.

    The constructor accepts *any* family of subsets; it keeps only the
    maximal ones (the structure is the downward closure of those).  Passing
    an empty family yields ``B = {∅}`` — the crash-only adversary, which the
    paper writes as ``B = {∅}`` in Example 2.
    """

    def __init__(
        self,
        ground_set: Iterable[Element],
        corruptible: Iterable[Iterable[Element]] = (),
    ):
        super().__init__(ground_set)
        sets = [as_subset(c) for c in corruptible]
        for candidate in sets:
            if not candidate <= self._ground:
                raise AdversaryError(
                    f"corruptible set {set(candidate)!r} not within S"
                )
        self._maxima = _maximal_antichain(sets)

    def maximal_sets(self) -> Tuple[Subset, ...]:
        return self._maxima


def _maximal_antichain(sets: Iterable[Subset]) -> Tuple[Subset, ...]:
    """Reduce a family of sets to its maximal antichain.

    The empty family reduces to ``(frozenset(),)`` so the downward closure
    is ``{∅}`` rather than the (illegal) empty structure.  Largest first,
    ties by the sorted member reprs (descending): a total order, so the
    maximal sets — and every witness extracted by walking them — do not
    depend on the interpreter's hash seed.
    """
    unique = sorted(
        set(sets), key=lambda s: (len(s), sorted(map(repr, s))), reverse=True
    )
    maxima: list[Subset] = []
    for candidate in unique:
        if not any(candidate < kept or candidate == kept for kept in maxima):
            maxima.append(candidate)
    if not maxima:
        maxima = [frozenset()]
    return tuple(maxima)
