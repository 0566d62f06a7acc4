"""A composable quorum expression algebra with per-node capacities.

The constructions in :mod:`repro.core.constructions` are fixed recipes;
this module lets a quorum system be *written down* as an expression over
named nodes and then lifted into the paper's
:class:`~repro.core.rqs.RefinedQuorumSystem` machinery:

    >>> a, b, c, d = [Node(x) for x in "abcd"]
    >>> qs = QuorumSystem(reads=a * b + c * d)
    >>> sorted(sorted(q) for q in qs.read_quorums())
    [['a', 'b'], ['c', 'd']]

Grammar (each connective is also available as operator sugar):

* ``Node(name, read_capacity=1, write_capacity=1)`` — a leaf; the
  capacities are operations per time unit and feed the strategy engine.
* ``And(e1, e2, ...)`` / ``e1 * e2`` — every operand must be covered.
* ``Or(e1, e2, ...)`` / ``e1 + e2`` — any one operand suffices.

``expr.quorums()`` materializes the *minimal* sets satisfying the
expression (an antichain — supersets are dropped), and ``expr.dual()``
gives the transversal-closed dual (``dual(And) = Or`` of duals), so
``QuorumSystem(reads=e)`` uses ``e.dual()`` for writes and every read
quorum intersects every write quorum by construction.

The lift (:meth:`QuorumSystem.to_rqs`) produces a
:class:`CapacitatedRqs` — a :class:`RefinedQuorumSystem` whose quorum
family is the minimal antichain of read∪write unions, carrying the
expression's capacity maps and the read/write split alongside.  Under
the crash-only adversary ``B = {∅}`` it lifts under, Property P1 is
exactly pairwise intersection, which holds by transversality; the
richest quorum classes the ordinary RQS property checks accept are
chosen.
"""

from __future__ import annotations

from fractions import Fraction
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.adversary import Adversary, ExplicitAdversary
from repro.core.properties import normalize_family
from repro.core.rqs import RefinedQuorumSystem
from repro.core.strategy import (
    Strategy,
    optimal_strategy,
    uniform_strategy,
)
from repro.errors import PropertyViolation, QuorumSystemError
from repro.records import record

Subset = FrozenSet[Hashable]
Family = Tuple[Subset, ...]


def _minimal_antichain(sets: Iterable[frozenset]) -> Family:
    """The inclusion-minimal members, deduped and normalized."""
    unique = set(sets)
    minimal = [
        s for s in unique
        if not any(other < s for other in unique)
    ]
    return normalize_family(minimal)


def _cross_union(families: Sequence[Family]) -> Family:
    """Minimal antichain of one-pick-per-family unions."""
    acc: Iterable[frozenset] = (frozenset(),)
    for family in families:
        acc = [s | q for s in acc for q in family]
    return _minimal_antichain(acc)


class Expr:
    """Base class for quorum expressions.

    Subclasses implement :meth:`quorums` (minimal satisfying sets),
    :meth:`dual` and :meth:`nodes`.  ``*`` composes conjunctively,
    ``+`` disjunctively.
    """

    def __mul__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        return And(operands=_flatten(And, (self, other)))

    def __add__(self, other: "Expr") -> "Expr":
        if not isinstance(other, Expr):
            return NotImplemented
        return Or(operands=_flatten(Or, (self, other)))

    def quorums(self) -> Family:
        raise NotImplementedError

    def dual(self) -> "Expr":
        raise NotImplementedError

    def nodes(self) -> Tuple["Node", ...]:
        raise NotImplementedError

    def __str__(self) -> str:
        raise NotImplementedError


def _flatten(kind, operands: Iterable[Expr]) -> Tuple[Expr, ...]:
    """Merge nested same-kind operands so ``a*b*c`` is one ``And``."""
    flat = []
    for op in operands:
        if type(op) is kind:
            flat.extend(op.operands)
        else:
            flat.append(op)
    return tuple(flat)


def _check_operands(operands: Sequence[Expr], kind: str) -> None:
    if not operands:
        raise QuorumSystemError(f"{kind} needs at least one operand")
    for op in operands:
        if not isinstance(op, Expr):
            raise QuorumSystemError(
                f"{kind} operand {op!r} is not a quorum expression"
            )


@record(frozen=True)
class Node(Expr):
    """A named server with read/write capacities (ops per time unit)."""

    name: Hashable
    read_capacity: Union[int, Fraction] = 1
    write_capacity: Union[int, Fraction] = 1

    def __post_init__(self):
        if Fraction(self.read_capacity) <= 0 or (
            Fraction(self.write_capacity) <= 0
        ):
            raise QuorumSystemError(
                f"node {self.name!r} needs positive capacities"
            )

    def quorums(self) -> Family:
        return (frozenset([self.name]),)

    def dual(self) -> "Node":
        return self

    def nodes(self) -> Tuple["Node", ...]:
        return (self,)

    def __str__(self) -> str:
        return str(self.name)

    # Inherit Expr's operator sugar, not dataclass-generated comparisons.
    __mul__ = Expr.__mul__
    __add__ = Expr.__add__


@record(frozen=True)
class And(Expr):
    """Every operand must be covered (``a * b``)."""

    operands: Tuple[Expr, ...]

    def __init__(self, *operands: Expr, **kwargs):
        operands = kwargs.get("operands", operands)
        operands = _flatten(And, operands)
        _check_operands(operands, "And")
        object.__setattr__(self, "operands", tuple(operands))

    def quorums(self) -> Family:
        return _cross_union([op.quorums() for op in self.operands])

    def dual(self) -> "Or":
        return Or(*(op.dual() for op in self.operands))

    def nodes(self) -> Tuple[Node, ...]:
        return _merge_nodes(self.operands)

    def __str__(self) -> str:
        # Parenthesize Or children: ``*`` binds tighter than ``+``.
        return "*".join(
            f"({op})" if isinstance(op, Or) else str(op)
            for op in self.operands
        )


@record(frozen=True)
class Or(Expr):
    """Any one operand suffices (``a + b``)."""

    operands: Tuple[Expr, ...]

    def __init__(self, *operands: Expr, **kwargs):
        operands = kwargs.get("operands", operands)
        operands = _flatten(Or, operands)
        _check_operands(operands, "Or")
        object.__setattr__(self, "operands", tuple(operands))

    def quorums(self) -> Family:
        return _minimal_antichain(
            q for op in self.operands for q in op.quorums()
        )

    def dual(self) -> "And":
        return And(*(op.dual() for op in self.operands))

    def nodes(self) -> Tuple[Node, ...]:
        return _merge_nodes(self.operands)

    def __str__(self) -> str:
        return " + ".join(str(op) for op in self.operands)


def _merge_nodes(operands: Iterable[Expr]) -> Tuple[Node, ...]:
    """All leaves, deduped by name; conflicting duplicates are an error."""
    by_name: Dict[Hashable, Node] = {}
    for op in operands:
        for node in op.nodes():
            seen = by_name.get(node.name)
            if seen is None:
                by_name[node.name] = node
            elif seen != node:
                raise QuorumSystemError(
                    f"node {node.name!r} appears with conflicting "
                    f"capacities: {seen} vs {node}"
                )
    return tuple(sorted(by_name.values(), key=lambda n: repr(n.name)))


# -- the planning object -------------------------------------------------------


class CapacitatedRqs(RefinedQuorumSystem):
    """A :class:`RefinedQuorumSystem` lifted from a quorum expression.

    Behaves exactly like its base class (same properties, same
    validation) and additionally remembers the expression's read/write
    quorum split and per-node capacity maps, which the strategy engine
    and the rate-limited capacity model consume.
    """

    def __init__(
        self,
        adversary: Adversary,
        quorums: Iterable[Iterable[Hashable]],
        qc1: Iterable[Iterable[Hashable]] = (),
        qc2: Optional[Iterable[Iterable[Hashable]]] = None,
        read_quorums: Iterable[Iterable[Hashable]] = (),
        write_quorums: Iterable[Iterable[Hashable]] = (),
        read_capacity: Optional[Mapping[Hashable, Fraction]] = None,
        write_capacity: Optional[Mapping[Hashable, Fraction]] = None,
    ):
        super().__init__(adversary, quorums, qc1, qc2)
        self.read_quorums = normalize_family(read_quorums)
        self.write_quorums = normalize_family(write_quorums)
        self.read_capacity = dict(read_capacity or {})
        self.write_capacity = dict(write_capacity or {})


@record(frozen=True)
class QuorumSystem:
    """A planning-level quorum system defined by expressions.

    ``reads`` and ``writes`` may each be given; a missing one defaults
    to the other's :meth:`~Expr.dual`, which guarantees the
    transversality invariant (every read quorum intersects every write
    quorum) by construction.  Providing both is allowed as long as the
    invariant holds — it is checked eagerly.
    """

    reads: Optional[Expr] = None
    writes: Optional[Expr] = None

    def __post_init__(self):
        if self.reads is None and self.writes is None:
            raise QuorumSystemError(
                "QuorumSystem needs a reads or writes expression"
            )
        if self.reads is None:
            object.__setattr__(self, "reads", self.writes.dual())
        if self.writes is None:
            object.__setattr__(self, "writes", self.reads.dual())
        # Merging also rejects same-name nodes with conflicting capacities.
        _merge_nodes((self.reads, self.writes))
        for r in self.read_quorums():
            for w in self.write_quorums():
                if not r & w:
                    raise QuorumSystemError(
                        f"read quorum {sorted(r, key=repr)} misses write "
                        f"quorum {sorted(w, key=repr)}: expressions are "
                        f"not transversal"
                    )

    # -- materialized views --------------------------------------------------

    def nodes(self) -> Tuple[Node, ...]:
        return _merge_nodes((self.reads, self.writes))

    def ground_set(self) -> Subset:
        return frozenset(n.name for n in self.nodes())

    def read_quorums(self) -> Family:
        return self.reads.quorums()

    def write_quorums(self) -> Family:
        return self.writes.quorums()

    def read_capacities(self) -> Dict[Hashable, Fraction]:
        return {n.name: Fraction(n.read_capacity) for n in self.nodes()}

    def write_capacities(self) -> Dict[Hashable, Fraction]:
        return {n.name: Fraction(n.write_capacity) for n in self.nodes()}

    # -- planning ------------------------------------------------------------

    def strategy(
        self, read_fraction: Union[Fraction, float, str] = Fraction(1, 2)
    ) -> Strategy:
        """The load-optimal strategy for this system at ``read_fraction``."""
        return optimal_strategy(
            self.read_quorums(),
            self.write_quorums(),
            read_fraction=read_fraction,
            read_capacity=self.read_capacities(),
            write_capacity=self.write_capacities(),
        )

    def uniform(
        self, read_fraction: Union[Fraction, float, str] = Fraction(1, 2)
    ) -> Strategy:
        """The uniform strategy (the baseline the optimizer must beat)."""
        return uniform_strategy(
            self.read_quorums(),
            self.write_quorums(),
            read_fraction=read_fraction,
            read_capacity=self.read_capacities(),
            write_capacity=self.write_capacities(),
        )

    # -- the lift ------------------------------------------------------------

    def lifted_quorums(self) -> Family:
        """The single family the storage protocol runs on: the minimal
        antichain of ``read ∪ write`` unions.  Every member contains a
        full read quorum *and* a full write quorum, so any two members
        intersect (transversality) — Property P1 under ``B = {∅}``."""
        return _minimal_antichain(
            r | w
            for r in self.read_quorums()
            for w in self.write_quorums()
        )

    def to_rqs(self) -> CapacitatedRqs:
        """Lift into a :class:`CapacitatedRqs` under the crash-only
        adversary ``B = {∅}`` over the expression's ground set, with
        the richest classes that validate: all quorums class-1 if P2
        holds, else all class-2 if P3 holds, else all class-3 (P1, all
        class-3 needs, holds by transversality)."""
        adversary = ExplicitAdversary(self.ground_set())
        family = self.lifted_quorums()
        kwargs = dict(
            read_quorums=self.read_quorums(),
            write_quorums=self.write_quorums(),
            read_capacity=self.read_capacities(),
            write_capacity=self.write_capacities(),
        )
        for qc1 in (family, ()):
            try:
                return CapacitatedRqs(
                    adversary, family, qc1=qc1, qc2=family, **kwargs
                )
            except PropertyViolation:
                continue
        return CapacitatedRqs(adversary, family, **kwargs)


# -- the demo systems used by E16, the example and the registry ---------------


def demo_grid_system(heterogeneous: bool = True) -> QuorumSystem:
    """The 2×3 grid ``a*b*c + d*e*f`` used across docs, E16 and tests.

    Reads take a full row; writes (the dual) take one node per row.
    With ``heterogeneous=True`` the first row is fast (capacity 10) and
    the second slow (read 2, write 1) — the setting where the optimal
    strategy visibly beats uniform.  With ``heterogeneous=False`` all
    six nodes have capacity 4 (a control where uniform is near-optimal).
    """
    if heterogeneous:
        fast = dict(read_capacity=10, write_capacity=10)
        slow = dict(read_capacity=2, write_capacity=1)
    else:
        fast = slow = dict(read_capacity=4, write_capacity=4)
    a, b, c = (Node(x, **fast) for x in "abc")
    d, e, f = (Node(x, **slow) for x in "def")
    return QuorumSystem(reads=a * b * c + d * e * f)


def demo_grid_rqs(heterogeneous: bool = True) -> CapacitatedRqs:
    """The lifted :class:`CapacitatedRqs` of :func:`demo_grid_system`."""
    return demo_grid_system(heterogeneous).to_rqs()
