"""Composable fault schedules for scenario specifications.

A :class:`FaultPlan` declares *everything the adversary does* in one
execution: crash times, Byzantine role assignments, network partitions
and asynchrony rules (message holds / drops / extra delays, including
the pre-GST lossy-channel regime of the consensus model).  Each
ingredient is a small frozen dataclass, so plans compose by tuple
concatenation and print as readable literals.

The plan is purely declarative.  Its delivery rules —
:class:`~repro.sim.network.Hold`, :class:`~repro.sim.network.Drop` and
:class:`~repro.sim.network.Delay` — are the network's own rule type, and
:meth:`FaultPlan.rules` hands them to it as written; a
:class:`ByzantineRole` carries the process factory the adapter binds in
place of the benign one; crashes become ``schedule_crash`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, FrozenSet, Hashable, List, Mapping, Tuple, Union

from repro.sim.network import Delay, Drop, Hold

ProcessId = Hashable


@dataclass(frozen=True)
class Crash:
    """Process ``process`` crashes at absolute simulated time ``at``.

    The target may be a server/acceptor id or a client id such as
    ``"writer"``, ``"reader1"`` or ``"p2"`` — anything registered on the
    network.
    """

    process: ProcessId
    at: float = 0.0


#: Role selectors for :class:`ByzantineRole`.
SERVER = "server"
ACCEPTOR = "acceptor"
PROPOSER = "proposer"


@dataclass(frozen=True)
class ByzantineRole:
    """Run one process as a Byzantine one.

    ``factory`` builds the process in place of the benign one, called
    with the benign constructor's arguments: a protocol subclass, or a
    ``functools.partial`` of one that fixes its own arguments —
    ``SilentServer``,
    ``partial(FabricatingServer, forged_ts=…, forged_value=…)``,
    ``partial(ForgetfulServer, trigger_time=…, forged_state=…)``,
    ``partial(QuorumForgettingServer, trigger_time=…)`` (all in
    :mod:`repro.storage.server`) or ``EquivocatingProposer``.  ``role``
    disambiguates targets whose id spaces overlap: storage servers
    (default), consensus acceptors, or consensus proposers (addressed by
    index).
    """

    process: ProcessId
    factory: Callable[..., Any]
    role: str = SERVER


@dataclass(frozen=True)
class Partition:
    """Hold every message crossing between two process groups.

    Messages inside a group are unaffected.  Active for send times in
    ``[after, until)``; the default window is forever.
    """

    left: FrozenSet[ProcessId]
    right: FrozenSet[ProcessId]
    after: float = float("-inf")
    until: float = float("inf")
    label: str = "partition"

    def crossed_by(self, message: Any) -> bool:
        """Whether ``message`` was held by this partition (for healing:
        messages sent during the window are delivered when it ends,
        realizing the "received by GST" half of the paper's model)."""
        crosses = (
            (message.src in self.left and message.dst in self.right)
            or (message.src in self.right and message.dst in self.left)
        )
        return crosses and self.after <= message.send_time < self.until


AsynchronyRule = Union[Hold, Drop, Delay]


@dataclass(frozen=True)
class PayloadIs:
    """A picklable payload predicate matching one message type.

    Equivalent to ``lambda p: isinstance(p, message_type)`` but, being a
    frozen dataclass over an importable class, survives pickling — use
    it in fault plans that must cross to multiprocessing sweep workers.
    """

    message_type: type

    def __call__(self, payload: Any) -> bool:
        return isinstance(payload, self.message_type)


def payload_is(message_type: type) -> PayloadIs:
    """A picklable ``isinstance`` payload predicate for Hold/Drop/Delay."""
    return PayloadIs(message_type)


def lossy_until_gst(gst: float, label: str = "lossy until GST") -> Drop:
    """The eventual-synchrony regime: every message sent before ``gst``
    is lost; after GST the network is synchronous (default Δ)."""
    return Drop(until=gst, label=label)


def crashes(schedule: Mapping[ProcessId, float]) -> Tuple[Crash, ...]:
    """Crash objects from a ``{process: time}`` mapping (sorted by id)."""
    return tuple(
        Crash(pid, at)
        for pid, at in sorted(schedule.items(), key=lambda kv: repr(kv[0]))
    )


@dataclass(frozen=True)
class FaultPlan:
    """Everything the adversary does in one execution."""

    crashes: Tuple[Crash, ...] = ()
    byzantine: Tuple[ByzantineRole, ...] = ()
    partitions: Tuple[Partition, ...] = ()
    asynchrony: Tuple[AsynchronyRule, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "byzantine", tuple(self.byzantine))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        object.__setattr__(self, "asynchrony", tuple(self.asynchrony))

    def rules(self) -> List[AsynchronyRule]:
        """The network's rules: each partition as a pair of holds (one
        per direction), then the asynchrony rules as written."""
        rules: List[AsynchronyRule] = []
        for p in self.partitions:
            left, right = frozenset(p.left), frozenset(p.right)
            rules.append(Hold(src=left, dst=right, after=p.after,
                              until=p.until, label=p.label))
            rules.append(Hold(src=right, dst=left, after=p.after,
                              until=p.until, label=p.label))
        rules.extend(self.asynchrony)
        return rules

    def byzantine_for(self, role: str) -> Tuple[ByzantineRole, ...]:
        return tuple(b for b in self.byzantine if b.role == role)
