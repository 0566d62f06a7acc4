"""Wire messages of the atomic storage algorithm (Figures 5-7).

All messages are immutable dataclasses.  ``WR``/``WrAck`` implement the
write protocol (also used by reader write-backs); ``RD``/``RdAck``
implement the read protocol.  Reader messages carry ``(reader, read_no)``
so acks from different operations of the same reader never mix (the
paper's ``read_no``, line 21 of Figure 7).

Every message additionally carries the ``key`` of the register it
addresses — the keyed-register-space lift.  Per-key server state is
fully independent, and acks echo the key so client-side responder sets
keyed ``(key, ts, rnd)`` never mix registers whose per-key timestamps
collide.  The default key keeps single-register executions identical to
the historical single-register protocol.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, FrozenSet, Hashable

from repro.sim.wire import wire_payload
from repro.storage.history import DEFAULT_KEY, HistoryView

QuorumId = FrozenSet[Hashable]


@wire_payload
@dataclass(frozen=True, slots=True)
class WR:
    """``wr⟨ts, v, QC'2, rnd⟩`` — write round ``rnd`` (Figure 5, line 10)."""

    ts: int
    value: Any
    qc2_ids: FrozenSet[QuorumId]
    rnd: int
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class WrAck:
    """``wr_ack⟨ts, rnd⟩`` (Figure 6, line 7)."""

    ts: int
    rnd: int
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class RD:
    """``rd⟨read_no, rnd⟩`` (Figure 7, line 25).

    ``rnd = 0`` is the multi-writer timestamp-discovery round: writers
    reuse the read protocol to learn the highest stored timestamp of a
    key before stamping their own.
    """

    read_no: int
    rnd: int
    key: Hashable = DEFAULT_KEY


@wire_payload
@dataclass(frozen=True, slots=True)
class RdAck:
    """``rd_ack⟨read_no, rnd, history⟩`` (Figure 6, line 9).

    ``history`` is a full snapshot of the server's history matrix for
    the addressed key.
    """

    read_no: int
    rnd: int
    history: HistoryView
    key: Hashable = DEFAULT_KEY
