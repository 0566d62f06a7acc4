"""The refined quorum system abstraction (Definition 2 of the paper).

A :class:`RefinedQuorumSystem` bundles

* a ground set ``S`` of servers,
* an adversary structure ``B`` over ``S``,
* a family ``RQS`` of quorums (subsets of ``S``), and
* two nested quorum classes ``QC1 ⊆ QC2 ⊆ RQS``

and validates Properties 1–3 on construction (unless deferred).  Quorums
that are in ``QC1`` are *class-1*, those in ``QC2 \\ QC1`` are *class-2*
and the rest are *class-3*; per the paper, class-1 quorums are also
class-2 quorums which are also class-3 quorums, so :meth:`quorum_class`
returns the *best* (smallest-numbered) class of a quorum.
"""

from __future__ import annotations

from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Optional,
    Tuple,
)

from repro.core.adversary import Adversary, as_subset
from repro.core import properties as props
from repro.errors import PropertyViolation, QuorumSystemError

Subset = FrozenSet[Hashable]


def _minimal_masks(masks: Iterable[int]) -> Tuple[int, ...]:
    """The distinct, non-empty, inclusion-minimal members of ``masks``.

    "Some member lies inside ``x``" is decided by the minimal members
    alone, so the intersection tables of :class:`QuorumIndex` are stored
    as this antichain — and so is, per class, the quorum family itself
    (:meth:`QuorumIndex.minimal`).
    """
    kept: list = []
    ordered = sorted(
        set(masks) - {0}, key=lambda mask: (mask.bit_count(), mask)
    )
    for mask in ordered:
        if not any(small & mask == small for small in kept):
            kept.append(mask)
    return tuple(kept)


class QuorumIndex:
    """Bitmask tables over one (immutable) refined quorum system.

    Server ``i`` of the ``repr``-sorted ground set is bit ``1 << i``
    (the adversary's bit order, and the family masks the system was
    validated on); a subset of ``S`` is a Python int.  Built once per
    system, on first use (:attr:`RefinedQuorumSystem.index`), so the
    protocol clients
    answer "does a quorum fit?", "is this set basic?" and the Figure 7
    best-case-detector intersections with a few integer operations
    instead of re-scanning frozenset families per ack.

    The tables are deliberately compact — plain ints, distinct and
    minimal sets only, filled lazily: a system is shared by every run
    that resolves its name or construction string (the resolver keeps
    the registered names and the last eight strings,
    :func:`repro.scenarios.resolve_rqs`), and a finished run keeps its
    own system alive until a full garbage collection.  Only ``is_basic``
    is memoised by subset (the adversary's answer is the one costly
    question, and the reader asks it of holder sets, a handful per
    read); quorum containment is a scan of ``masks`` — or, when the
    caller knows which server answered last, of the quorums through
    that server's bit (``newly_responding``, one tuple per server) —
    and keeps nothing per subset, so enumerating all ``2^|S|`` subsets
    leaves the index as it was.  A test that is monotone in the quorum
    needs the inclusion-minimal quorums only (``minimal``, one
    antichain per class).  The two facts of monotonicity that a fast
    path reads are kept once per system, never per subset: per class,
    the size of its smallest quorum (no mask with fewer members
    ``fits``), and whether every minimal quorum is basic
    (``all_basic``).
    """

    __slots__ = (
        "servers", "bit", "full", "masks", "class_of", "quorum_at",
        "_adversary", "_basic", "_class1_meets", "_meets", "_through",
        "_minimal", "_floor", "_all_basic",
    )

    def __init__(self, rqs: "RefinedQuorumSystem"):
        self._adversary = rqs.adversary
        #: The ground set in ``repr`` order (bit ``i`` is ``servers[i]``).
        self.servers: Tuple[Hashable, ...] = self._adversary.servers
        #: server -> its bit.
        self.bit: Dict[Hashable, int] = self._adversary.bit
        #: The whole ground set.
        self.full = (1 << len(self.servers)) - 1
        #: ``masks[cls]``: one mask per quorum of ``class_quorums(cls)``,
        #: in the same order.
        self.masks: Dict[int, Tuple[int, ...]] = rqs._masks
        #: quorum -> its best (lowest) class.
        self.class_of: Dict[Subset, int] = {}
        for cls in (3, 2, 1):
            for quorum in rqs.class_quorums(cls):
                self.class_of[quorum] = cls
        #: quorum mask -> the quorum.
        self.quorum_at: Dict[int, Subset] = dict(
            zip(self.masks[3], rqs.quorums)
        )
        self._basic: Dict[int, bool] = {}
        self._class1_meets: Dict[int, Tuple[int, ...]] = {}
        self._meets: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._through: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._minimal: Dict[int, Tuple[int, ...]] = {}
        # ``_floor[cls]``: how many members the smallest class-``cls``
        # quorum has (``|S| + 1`` for an empty class).
        empty = len(self.servers) + 1
        self._floor: Tuple[int, ...] = (
            0,
            *[min(map(int.bit_count, self.masks[cls]), default=empty)
              for cls in (1, 2, 3)],
        )
        self._all_basic: Optional[bool] = None

    def mask(self, servers: Iterable[Hashable]) -> int:
        """The members of ``servers`` that belong to ``S``, as a mask
        (processes outside the ground set are ignored)."""
        bit = self.bit.get
        mask = 0
        for server in servers:
            mask |= bit(server, 0)
        return mask

    def members(self, mask: int) -> Subset:
        """The subset of ``S`` a mask stands for."""
        return self._adversary.members(mask)

    def is_basic(self, mask: int) -> bool:
        """Definition 5 on a mask: the subset is not in ``B``."""
        basic = self._basic.get(mask)
        if basic is None:
            basic = self._basic[mask] = not self._adversary.contains_mask(
                mask
            )
        return basic

    def responding(self, mask: int, cls: int = 3) -> Tuple[int, ...]:
        """Every class-``cls`` quorum fully inside ``mask``, in
        ``class_quorums(cls)`` order."""
        return tuple([q for q in self.masks[cls] if q & mask == q])

    def minimal(self, cls: int = 3) -> Tuple[int, ...]:
        """The inclusion-minimal class-``cls`` quorums.  Every quorum
        contains one of them, so a test that is monotone in the quorum
        (one a superset quorum passes whenever a subset quorum does)
        holds on the whole family iff it holds on this antichain."""
        minimal = self._minimal.get(cls)
        if minimal is None:
            minimal = self._minimal[cls] = _minimal_masks(self.masks[cls])
        return minimal

    @property
    def all_basic(self) -> bool:
        """Is every quorum basic?  Property 1 with ``Q = Q'`` — true on
        every validated system, possibly false on a ``validate=False``
        one.  Decided once, on the minimal quorums (a superset of a
        basic set is basic), without filling the ``is_basic`` memo."""
        all_basic = self._all_basic
        if all_basic is None:
            contains = self._adversary.contains_mask
            all_basic = self._all_basic = not any(
                contains(q) for q in self.minimal()
            )
        return all_basic

    def fits(self, mask: int, cls: int = 3) -> bool:
        """Is some class-``cls`` quorum fully inside ``mask``?  A mask
        with fewer members than the class's smallest quorum holds
        none, and is answered without a scan."""
        if mask.bit_count() < self._floor[cls]:
            return False
        for q in self.masks[cls]:
            if q & mask == q:
                return True
        return False

    def newly_responding(
        self, mask: int, new: int, cls: int = 3
    ) -> Tuple[int, ...]:
        """The class-``cls`` quorums inside ``mask`` that meet ``new``
        (a non-empty part of ``mask``), in ``class_quorums(cls)`` order.

        With ``new`` the servers heard from since the quorums inside
        ``mask & ~new`` were last dealt with, these are exactly the
        quorums that have *become* responding.  The usual case — one
        new server — scans only the quorums through that server's bit.
        """
        if new & (new - 1):
            return tuple(
                q for q in self.masks[cls] if q & mask == q and q & new
            )
        through = self._through.get((cls, new))
        if through is None:
            through = self._through[(cls, new)] = tuple(
                q for q in self.masks[cls] if q & new
            )
        return tuple(q for q in through if q & mask == q)

    def meets(self, cls: int, other: int) -> Tuple[int, ...]:
        """The minimal non-empty ``QR ∩ other`` over ``QR ∈ QC_cls``:
        some such intersection lies inside ``x`` iff one of these does."""
        key = (cls, other)
        meets = self._meets.get(key)
        if meets is None:
            meets = self._meets[key] = _minimal_masks(
                qr & other for qr in self.masks[cls]
            )
        return meets

    def class1_meets(self, cls: int) -> Tuple[int, ...]:
        """The minimal non-empty ``Q1 ∩ QR`` over ``Q1 ∈ QC1`` and
        ``QR ∈ QC_cls`` (the ``BCD(c, 1, R)`` intersections)."""
        meets = self._class1_meets.get(cls)
        if meets is None:
            meets = self._class1_meets[cls] = _minimal_masks(
                q1 & qr for q1 in self.masks[1] for qr in self.masks[cls]
            )
        return meets


class RefinedQuorumSystem:
    """A validated refined quorum system.

    Parameters
    ----------
    adversary:
        The adversary structure ``B`` (its ground set is taken as ``S``).
    quorums:
        The family ``RQS`` of all quorums (class-3 view of the system).
    qc1, qc2:
        The class-1 and class-2 quorum families.  Membership is by set
        equality; each must be a sub-family of ``quorums`` and
        ``qc1 ⊆ qc2`` must hold.
    validate:
        When ``True`` (default) Properties 1–3 are checked eagerly and a
        :class:`~repro.errors.PropertyViolation` is raised on failure.
        Pass ``False`` to build deliberately-broken systems for the
        lower-bound experiments, then call :meth:`violated` /
        :meth:`first_violation` yourself.
    """

    def __init__(
        self,
        adversary: Adversary,
        quorums: Iterable[Iterable[Hashable]],
        qc1: Iterable[Iterable[Hashable]] = (),
        qc2: Optional[Iterable[Iterable[Hashable]]] = None,
        validate: bool = True,
    ):
        self._adversary = adversary
        self._quorums = props.normalize_family(quorums)
        self._qc1 = props.normalize_family(qc1)
        if qc2 is None:
            # Per the paper QC1 ⊆ QC2; with no explicit QC2 the smallest
            # legal choice is QC2 = QC1.
            self._qc2 = self._qc1
        else:
            self._qc2 = props.normalize_family(qc2)
        self._index: Optional[QuorumIndex] = None
        #: ``_masks[cls]``: the masks of ``class_quorums(cls)``, in order —
        #: converted once, shared by validation and :attr:`index`.
        self._masks: Dict[int, Tuple[int, ...]] = self._checked_masks()
        if validate:
            violation = self.first_violation()
            if violation is not None:
                name, witness = violation
                raise PropertyViolation(name, (witness,), witness.describe())

    # -- construction invariants --------------------------------------------

    def _checked_masks(self) -> Dict[int, Tuple[int, ...]]:
        """Check the shape of the three families and return their masks.

        Each family is converted once — or not at all, when it carries
        its masks (``Adversary.masks``).  Distinct subsets of ``S`` have
        distinct masks, so ``QC1 ⊆ QC2 ⊆ RQS`` is decided on the ints.
        """
        if not self._quorums:
            raise QuorumSystemError("RQS must contain at least one quorum")
        convert = self._adversary.masks
        masks = convert(self._quorums)
        if None in masks:
            outside = self._quorums[masks.index(None)]
            raise QuorumSystemError(
                f"quorum {set(outside)} is not a subset of S"
            )
        if 0 in masks:
            raise QuorumSystemError("quorums must be non-empty")
        qc2 = convert(self._qc2)
        if not set(qc2) <= set(masks):
            raise QuorumSystemError("QC2 must be a sub-family of RQS")
        qc1 = convert(self._qc1)
        if not set(qc1) <= set(qc2):
            raise QuorumSystemError("QC1 must be a sub-family of QC2")
        return {1: qc1, 2: qc2, 3: masks}

    # -- basic accessors -----------------------------------------------------

    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def ground_set(self) -> Subset:
        return self._adversary.ground_set

    @property
    def servers(self) -> Tuple[Hashable, ...]:
        """The ground set as a tuple in ``repr`` order — the order every
        protocol broadcasts in."""
        return self._adversary.servers

    @property
    def quorums(self) -> Tuple[Subset, ...]:
        """All quorums (the class-3 view, ``QC3 = RQS``)."""
        return self._quorums

    @property
    def qc1(self) -> Tuple[Subset, ...]:
        return self._qc1

    @property
    def qc2(self) -> Tuple[Subset, ...]:
        return self._qc2

    def class_quorums(self, cls: int) -> Tuple[Subset, ...]:
        """The family ``QC_cls`` for ``cls ∈ {1, 2, 3}`` (``QC3 = RQS``)."""
        if cls == 1:
            return self._qc1
        if cls == 2:
            return self._qc2
        if cls == 3:
            return self._quorums
        raise ValueError(f"quorum class must be 1, 2 or 3, got {cls}")

    @property
    def index(self) -> QuorumIndex:
        """The system's bitmask tables (built on first use)."""
        index = self._index
        if index is None:
            index = self._index = QuorumIndex(self)
        return index

    def is_quorum(self, candidate: Iterable[Hashable]) -> bool:
        return as_subset(candidate) in self.index.class_of

    def quorum_class(self, quorum: Iterable[Hashable]) -> int:
        """Best (lowest) class of ``quorum``; raises if it is not a quorum."""
        target = as_subset(quorum)
        cls = self.index.class_of.get(target)
        if cls is None:
            raise QuorumSystemError(
                f"{set(target)} is not a quorum of this RQS"
            )
        return cls

    # -- predicates re-exported for algorithm code ---------------------------

    def is_basic(self, subset: Iterable[Hashable]) -> bool:
        """Definition 5: ``subset ∉ B``."""
        return self._adversary.is_basic(subset)

    def p3a(self, q2: Subset, q: Subset, b: Subset) -> bool:
        return props.p3a(self._adversary, q2, q, b)

    def p3b(self, q2: Subset, q: Subset, b: Subset) -> bool:
        return props.p3b(self._qc1, q2, q, b)

    # -- validation ----------------------------------------------------------

    def first_violation(self):
        """Return ``(name, witness)`` for the first violated property.

        Checks Properties 1, 2, 3 in order on the system's own masks (a
        later one is not checked once an earlier one fails); returns
        ``None`` when all hold.
        """
        adversary = self._adversary
        quorums = (self._quorums, self._masks[3])
        qc1 = (self._qc1, self._masks[1])
        witness = props.property1_witness(adversary, *quorums)
        if witness is not None:
            return ("P1", witness)
        witness = props.property2_witness(adversary, *qc1, *quorums)
        if witness is not None:
            return ("P2", witness)
        witness = props.property3_witness(
            adversary, *qc1, self._qc2, self._masks[2], *quorums
        )
        if witness is not None:
            return ("P3", witness)
        return None

    def violated(self) -> Tuple[str, ...]:
        """The names of the violated properties, in the order P1, P2,
        P3, decided without building a witness (the
        ``property*_failing`` searches of :mod:`repro.core.properties`),
        so ``B`` is never walked to name one; :meth:`first_violation`
        names the first one's witness."""
        adversary = self._adversary
        masks = self._masks
        failing = (
            props.property1_failing(adversary, masks[3]),
            props.property2_failing(adversary, masks[1], masks[3]),
            props.property3_failing(adversary, masks[1], masks[2], masks[3]),
        )
        return tuple([
            name for name, found in zip(("P1", "P2", "P3"), failing)
            if found is not None
        ])

    def is_valid(self) -> bool:
        """Do Properties 1–3 hold (:meth:`violated` names none)?"""
        return not self.violated()

    # -- quorum selection helpers (used by protocol clients) -----------------

    def responding_quorums(
        self, responders: Iterable[Hashable], cls: int = 3
    ) -> Tuple[Subset, ...]:
        """All class-``cls`` quorums fully contained in ``responders``.

        This is the "did some quorum of class *cls* respond?" test used
        throughout the storage and consensus algorithms.
        """
        index = self.index
        quorum_at = index.quorum_at
        return tuple(
            quorum_at[mask]
            for mask in index.responding(index.mask(responders), cls)
        )

    def contains_quorum(
        self, responders: Iterable[Hashable], cls: int = 3
    ) -> bool:
        """Is some class-``cls`` quorum fully contained in ``responders``?
        (Members of ``responders`` outside ``S`` are ignored.)"""
        index = self.index
        return index.fits(index.mask(responders), cls)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RefinedQuorumSystem(|S|={len(self.ground_set)}, "
            f"|RQS|={len(self._quorums)}, |QC2|={len(self._qc2)}, "
            f"|QC1|={len(self._qc1)})"
        )


def describe(rqs: RefinedQuorumSystem) -> str:
    """A human-readable multi-line description of an RQS (for examples)."""
    lines = [
        f"Ground set S ({len(rqs.ground_set)}): {sorted(map(repr, rqs.ground_set))}",
        f"Quorums ({len(rqs.quorums)}):",
    ]
    for quorum in rqs.quorums:
        cls = rqs.quorum_class(quorum)
        lines.append(f"  class {cls}: {sorted(map(repr, quorum))}")
    status = "valid" if rqs.is_valid() else "INVALID"
    lines.append(f"Properties 1-3: {status}")
    return "\n".join(lines)
