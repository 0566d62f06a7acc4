"""Point-to-point message transport with scriptable timing.

The paper's model (Section 3.1) has reliable point-to-point channels, an
asynchronous system that may be synchronous during intervals (all
messages between correct processes delivered within ``Δ``), and — for
consensus — lossy channels with eventual synchrony after ``GST``.

This module models all of that with a single mechanism: a network holds a
*default* latency and an ordered tuple of rules, fixed when it is built.
Each rule matches messages by sender/receiver/payload/send-time and
either delays them by a fixed amount (:class:`Delay`), holds them **in
transit forever** (:class:`Hold`, the asynchrony device used by every
indistinguishability proof), or drops them (:class:`Drop`, lossy
channels before GST).  The first matching rule wins.  The three are the
very literals a :class:`~repro.scenarios.faults.FaultPlan` is written
with: the network matches on them as they are.

Held messages are recorded (:attr:`Network.in_transit`) so experiments
can assert what the adversary withheld, and can later be *released* to
model "delayed until after round K" schedules.

The broadcast is the transport's primitive — every step of the paper's
pseudocode is "send to all servers / acceptors / learners".
:meth:`Network.send_all` stamps one delivery per destination and
resolves its rules, once each and in iteration order, and pushes **one
queue entry per distinct delivery instant**: ``(deliver_time, seq,
Network._deliver_block, Block)``, the block holding the deliveries due
then (a held or dropped destination is in none, one a rule delays is in
its own instant's).  The entry takes the ``seq`` of its first member and
the simulator's counter moves on by one per queued delivery, exactly as
far as one entry each would move it; the members of a broadcast are
consecutive in ``seq``, so no other entry can tie *between* two of them
and every tie resolves as before.  The event loop counts a block as one
event per member (``Simulator.run``).  :meth:`Network.send` is the
single-destination primitive (replies): ``(deliver_time, seq,
Network._deliver, delivery)``.  Neither builds a closure or goes through
``call_at``.

A queued delivery is the bare ``(src, dst, payload)`` tuple at every
level: a :class:`Message` is built only for a message a rule holds (it
must stay releasable in :attr:`Network.in_transit`) or drops.
``_deliver`` / ``_deliver_block`` call the receiver's
``on_message(src, payload)`` themselves; a crashed receiver's message is
dropped there (it still counts as delivered).

What a ``FULL`` run keeps of its messages is one entry per ``send`` /
``send_all`` call, not a record per delivery: ``(src, destinations,
payload, send_time, deliver_time, exceptions)``, ``destinations`` the
caller's tuple (anything else snapshotted with ``tuple()``; the sent
prefix if a destination is refused mid-broadcast) and ``exceptions``
``None`` unless a rule touched a member — then it maps the member's
index to the live held or dropped :class:`Message`, or to the delayed
delivery time.  :attr:`Network.log` builds the :class:`Message` list
from those entries when it is read.

* **Rule partitioning** — rule resolution caches, per ``(src, dst)``
  pair, the (ordered) sub-list of rules that could ever match that
  channel, so the per-send scan only evaluates time windows and payload
  predicates of relevant rules.  ``send`` / ``send_all`` look the
  channel up themselves and skip ``_resolve`` when it has no candidate
  (``_resolve`` builds the entry the first time it meets a channel);
  rule-free networks skip matching entirely, and so does a network
  once the last rule window has closed (a ``lossy_until_gst`` run after
  GST): a rule matches a send time before its ``until`` only.  Rules
  are fixed at construction, so an entry is never invalidated.
* **Trace levels** — :class:`TraceLevel` says how much history is
  retained.  Only ``FULL`` keeps the send entries :attr:`Network.log`
  is built from (a dropped message is the entry of its log whose
  ``dropped`` is set); ``RECORDS`` (a scenario's default) and
  ``METRICS`` keep none — only counters — and :attr:`Network.log`
  refuses there rather than read as an empty log.  A network built
  directly logs at ``FULL`` unless told otherwise.
  Nothing under ``repro`` reads the log: verdicts and fingerprints read
  operation records (:mod:`repro.sim.trace`), and a replay of held
  messages reads :attr:`Network.in_transit` — held messages are always
  recorded and tracked, at every level, since they must remain
  releasable.  The log is for per-message inspection in tests.
"""

from __future__ import annotations

import enum
from heapq import heappush
from typing import (
    Any, Callable, ClassVar, Collection, Dict, Hashable, List, Optional,
    Sequence, Tuple, Union,
)

from repro.errors import SimulationError
from repro.records import record
from repro.sim.simulator import Block, Simulator

ProcessId = Hashable


class TraceLevel(enum.IntEnum):
    """How much history an execution retains; each level keeps what
    the one below it keeps.

    ``METRICS``
        Counters, latency accumulators and the online verdict only:
        operation records stream past and no send is logged.  Use for
        big sweeps and soaks.
    ``RECORDS``
        Every operation record as well — what the post-hoc verdicts,
        ``fingerprint()`` and the consensus check read — but no send
        log.  A scenario's default.
    ``FULL``
        The records and a log of every send, one entry per ``send`` /
        ``send_all`` call: ``Network.log`` is every message as a
        :class:`Message`, the dropped ones with ``dropped`` set.  Only
        per-message inspection in tests reads it; no verdict,
        fingerprint or replay does (held messages are kept in
        ``in_transit`` at every level).
    """

    METRICS = 1
    RECORDS = 2
    FULL = 3

    @classmethod
    def of(cls, value: Union["TraceLevel", str]) -> "TraceLevel":
        """Coerce a level or its (case-insensitive) name."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            try:
                return cls[value.upper()]
            except KeyError:
                pass
        raise SimulationError(
            f"unknown trace level {value!r}; "
            f"valid: {', '.join(level.name.lower() for level in cls)}"
        )


@record(slots=True)
class Message:
    """A message in flight (or delivered, or held)."""

    src: ProcessId
    dst: ProcessId
    payload: Any
    send_time: float
    deliver_time: Optional[float] = None
    held: bool = False
    dropped: bool = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = (
            "held" if self.held else "dropped" if self.dropped
            else f"@{self.deliver_time}"
        )
        return f"Message({self.src}->{self.dst}, {self.payload!r}, {state})"


#: The action of a :class:`Hold` and of a :class:`Drop` (a
#: :class:`Delay`'s is its delay).
HOLD = "hold"
DROP = "drop"


class _Channels:
    """What the three rules share.  A rule matches a message whose
    sender is in ``src``, receiver in ``dst``, send time in ``[after,
    until)`` and payload satisfies ``payload`` (each ``None`` = any).
    ``src`` / ``dst`` are collections of process ids, never a bare
    string — ``"writer"`` would be matched letter by letter, and the rule
    would hold nothing."""

    __slots__ = ()

    def __post_init__(self) -> None:
        for end in (self.src, self.dst):
            if isinstance(end, str):
                raise SimulationError(
                    f"{type(self).__name__}: src/dst is a collection of "
                    f"process ids, not the bare string {end!r}; write "
                    f"({end!r},)"
                )


@record(frozen=True)
class Hold(_Channels):
    """Keep matching messages in transit forever (asynchrony device)."""

    action: ClassVar[str] = HOLD

    src: Optional[Collection[ProcessId]] = None
    dst: Optional[Collection[ProcessId]] = None
    after: float = float("-inf")
    until: float = float("inf")
    payload: Optional[Callable[[Any], bool]] = None
    label: str = ""


@record(frozen=True)
class Drop(_Channels):
    """Lose matching messages (the consensus model's lossy channels)."""

    action: ClassVar[str] = DROP

    src: Optional[Collection[ProcessId]] = None
    dst: Optional[Collection[ProcessId]] = None
    after: float = float("-inf")
    until: float = float("inf")
    payload: Optional[Callable[[Any], bool]] = None
    label: str = ""


@record(frozen=True)
class Delay(_Channels):
    """Deliver matching messages after a fixed ``delay`` instead of Δ.

    The delay must be a number ``>= 0``: it is checked here, where it is
    written, so that no ``send`` can fail half-way on a bad rule; its
    ``action`` is the delay as a float.
    """

    delay: float
    src: Optional[Collection[ProcessId]] = None
    dst: Optional[Collection[ProcessId]] = None
    after: float = float("-inf")
    until: float = float("inf")
    payload: Optional[Callable[[Any], bool]] = None
    label: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        try:
            delay = float(self.delay)
        except (TypeError, ValueError):
            delay = float("nan")
        if not delay >= 0:  # negative or NaN
            raise SimulationError(
                f"Delay must be a delay >= 0; got {self.delay!r}"
            )
        object.__setattr__(self, "action", delay)


class Network:
    """The message transport shared by all processes of an execution."""

    def __init__(
        self,
        sim: Simulator,
        delta: float = 1.0,
        rules: Sequence[Union[Hold, Drop, Delay]] = (),
        trace_level: Union[TraceLevel, str] = TraceLevel.FULL,
    ):
        if not delta > 0:  # also refuses NaN
            raise SimulationError(f"Δ must be positive, got {delta}")
        self.sim = sim
        self.delta = float(delta)
        self.trace_level = TraceLevel.of(trace_level)
        #: ``trace_level >= FULL``, resolved once: whether sends are
        #: logged (``log``).
        self.full_trace = self.trace_level >= TraceLevel.FULL
        #: The delivery rules, first match wins; fixed for the run.
        self._rules = tuple(rules)
        #: When the last rule window closes: a message sent from then on
        #: matches no rule (``-inf`` without rules; a NaN ``until``
        #: matches nothing, so it closes nothing).
        self._rules_until = max(
            (rule.until for rule in self._rules if rule.until == rule.until),
            default=float("-inf"),
        )
        self._processes: Dict[ProcessId, "object"] = {}
        #: One entry per logged ``send`` / ``send_all`` call (module
        #: docstring); :attr:`log` reads them.
        self._sends: List[tuple] = []
        self.in_transit: List[Message] = []
        # Monotone counters, maintained at every trace level — the
        # portable replacement for len(log) in fingerprints
        # and metrics.
        self.sent_count = 0
        self.delivered_count = 0
        self.dropped_count = 0
        self.held_count = 0
        # Rule resolution fast path: per-(src, dst) ordered sub-list of
        # the rules that could match that channel.
        self._rule_index: Dict[Tuple[ProcessId, ProcessId], tuple] = {}

    @property
    def log(self) -> List[Message]:
        """Every message sent, in send order, built on each read: a
        delivered message gets a fresh record, a held or dropped one is
        its live record — a later :meth:`release_held` shows.  Only a
        ``FULL`` network keeps a log; below it this raises, so a check
        over the log never passes on one that was not kept."""
        if not self.full_trace:
            raise SimulationError(
                f"this network kept no message log: it ran at trace "
                f"level {self.trace_level.name}, and only FULL logs "
                f"sends; run the spec with trace_level='full'"
            )
        log = []
        for entry in self._sends:
            src, destinations, payload, send_time, deliver_time, exceptions = (
                entry
            )
            for index, dst in enumerate(destinations):
                fate = (exceptions.get(index, deliver_time) if exceptions
                        else deliver_time)
                log.append(
                    fate if isinstance(fate, Message)
                    else Message(src, dst, payload, send_time, fate)
                )
        return log

    # -- wiring ---------------------------------------------------------------

    def register(self, process: Any) -> None:
        """Attach a process (a :class:`~repro.sim.process.Process`: the
        network reads its ``pid`` and ``crashed`` and calls its
        ``on_message``)."""
        pid = process.pid
        if pid in self._processes:
            raise SimulationError(f"duplicate process id {pid!r}")
        self._processes[pid] = process

    def process(self, pid: ProcessId) -> Any:
        return self._processes[pid]

    # -- transport --------------------------------------------------------------

    def send(
        self, src: ProcessId, dst: ProcessId, payload: Any
    ) -> Optional[Message]:
        """Send ``payload`` from ``src`` to ``dst``; returns the record of
        a message a rule held or dropped, ``None`` for one it queued."""
        if dst not in self._processes:
            raise SimulationError(f"unknown destination {dst!r}")
        sim = self.sim
        now = sim.now
        deliver_time = now + self.delta
        message = None
        # ``_resolve`` only for a channel that has (or may have) rules,
        # while some rule's window is open.
        if now < self._rules_until and self._rule_index.get((src, dst)) != ():
            action = self._resolve(src, dst, payload, now)
            if action == HOLD or action == DROP:
                message = Message(src, dst, payload, now)
                self._withhold(message, action)
            else:
                deliver_time = now + action
        self.sent_count += 1
        if self.full_trace:
            self._sends.append((src, (dst,), payload, now, deliver_time,
                                None if message is None else {0: message}))
        if message is None:
            # One queue entry per delivery, in ``Simulator.call_at``'s
            # shape and numbering.
            heappush(sim._queue, (deliver_time, sim._seq, self._deliver,
                                  (src, dst, payload)))
            sim._seq += 1
        return message

    def send_all(self, src: ProcessId, destinations, payload: Any) -> None:
        """Send one ``payload`` from ``src`` to every destination, in
        iteration order: for each destination what :meth:`send` does,
        for each delivery instant one queue entry (module docstring)."""
        sim = self.sim
        now = sim.now
        processes = self._processes
        full_trace = self.full_trace
        if full_trace and type(destinations) is not tuple:
            destinations = tuple(destinations)  # the log keeps it
        # The channels' rule candidates — ``None`` when no rule can
        # match any more (none exists, or every window has closed);
        # ``_resolve`` is skipped for a channel whose entry is empty.
        rule_index = self._rule_index if now < self._rules_until else None
        deliver = self._deliver_block
        default_time = now + self.delta
        seq = sim._seq
        sent = 0
        entries: Dict[float, tuple] = {}
        # Member index -> held / dropped record, or a rule's other
        # delivery time: what the log entry needs beyond ``default_time``.
        exceptions: Dict[int, Any] = {}
        try:
            for dst in destinations:
                if dst not in processes:
                    raise SimulationError(f"unknown destination {dst!r}")
                deliver_time = default_time
                if rule_index is not None and (
                    rule_index.get((src, dst)) != ()
                ):
                    action = self._resolve(src, dst, payload, now)
                    if action == HOLD or action == DROP:
                        message = Message(src, dst, payload, now)
                        self._withhold(message, action)
                        exceptions[sent] = message
                        sent += 1
                        continue
                    deliver_time = now + action
                    if deliver_time != default_time:
                        exceptions[sent] = deliver_time
                sent += 1
                entry = entries.get(deliver_time)
                if entry is None:
                    entry = (deliver_time, seq, deliver, Block())
                    entries[deliver_time] = entry
                entry[3].append((src, dst, payload))
                seq += 1
        finally:
            # Also when a destination is refused: what was sent before
            # it stays sent (and logged), as after that many ``send``
            # calls.
            self.sent_count += sent
            if full_trace and sent:
                if sent < len(destinations):
                    destinations = destinations[:sent]
                self._sends.append((src, destinations, payload, now,
                                    default_time, exceptions or None))
            queue = sim._queue
            for entry in entries.values():
                entry[3].reverse()  # a stack: the first to run is last
                heappush(queue, entry)
            sim._seq = seq

    def _resolve(
        self, src: ProcessId, dst: ProcessId, payload: Any, time: float
    ) -> Any:
        """The first matching rule's action for ``payload`` sent from
        ``src`` to ``dst`` at ``time``, else ``Δ`` (needs rules; builds
        the channel's candidate entry on first sight)."""
        candidates = self._rule_index.get((src, dst))
        if candidates is None:
            candidates = tuple(
                rule
                for rule in self._rules
                if (rule.src is None or src in rule.src)
                and (rule.dst is None or dst in rule.dst)
            )
            self._rule_index[src, dst] = candidates
        # The index has matched the channel; what is left to match is
        # the send-time window and the payload predicate.
        for rule in candidates:
            if rule.after <= time < rule.until and (
                rule.payload is None or rule.payload(payload)
            ):
                return rule.action
        return self.delta

    def _withhold(self, message: Message, action: str) -> None:
        """Book a message a rule holds in transit or drops."""
        if action == HOLD:
            message.held = True
            self.held_count += 1
            self.in_transit.append(message)
        else:
            message.dropped = True
            self.dropped_count += 1

    def _deliver(self, delivery: Tuple[ProcessId, ProcessId, Any]) -> None:
        """Hand a ``(src, dst, payload)`` delivery to its receiver's
        ``on_message`` — unless the receiver has crashed (it takes no
        steps; the delivery still counts)."""
        # Destinations are checked at send and never unregistered.
        self.delivered_count += 1
        src, dst, payload = delivery
        process = self._processes[dst]
        if process.crashed:
            return
        process.on_message(src, payload)

    def _deliver_block(self, block: Block, room: int) -> None:
        """:meth:`_deliver` for up to ``room`` members of a block, each
        popped before it is handed over (see :class:`Block`)."""
        processes = self._processes
        take = block.pop
        for _ in range(min(len(block), room)):
            src, dst, payload = take()
            self.delivered_count += 1
            process = processes[dst]
            if process.crashed:
                continue
            process.on_message(src, payload)

    # -- adversarial schedule control ---------------------------------------------

    def release_held(
        self,
        predicate: Optional[Callable[[Message], bool]] = None,
        delay: float = 0.0,
    ) -> int:
        """Deliver held messages matching ``predicate`` after ``delay``.

        Returns the number of messages released.  Used by proof replays
        that delay messages "until after round K" and then let them land.
        """
        if not delay >= 0:  # negative or NaN: refuse before releasing any
            raise SimulationError(f"release delay must be >= 0, got {delay}")
        deliver_time = self.sim.now + delay
        released = 0
        remaining: List[Message] = []
        for message in self.in_transit:
            if predicate is None or predicate(message):
                message.held = False
                message.deliver_time = deliver_time
                self.sim.call_at(
                    deliver_time, self._deliver,
                    (message.src, message.dst, message.payload),
                )
                released += 1
            else:
                remaining.append(message)
        self.in_transit = remaining
        return released
