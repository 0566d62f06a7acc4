"""The count-quorum kernel's registry rows: ``abd``, ``fastabd`` and
``naive``.

Each id is one row of :data:`repro.storage.abd.PROTOCOLS` (classic ABD,
the Section 1.2 fast variant and the broken Figure 1 algorithm) wired
by one :class:`RegisterAdapter`.  The registry imports this module on
the first lookup of one of the three ids, so a run of the crash-model
baselines imports neither the quorum algebra, the RQS stack nor the
consensus half.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.errors import ScenarioError
from repro.scenarios.adapters import (
    ProtocolAdapter,
    StorageAdapter,
    _unsupported_roles,
    _unsupported_strategy,
)
from repro.scenarios.registry import register_protocol
from repro.storage.abd import (
    NAIVE,
    PROTOCOLS,
    RegisterReader,
    RegisterServer,
    RegisterWriter,
)


def _require_range(
    adapter: ProtocolAdapter, name: str, value: Any, low: int,
    high: Optional[int] = None,
) -> None:
    """Refuse ``params[name]`` unless it is an int in ``low..high``."""
    if not isinstance(value, int) or not (
        low <= value and (high is None or value <= high)
    ):
        bound = f"{low} <= {name}" + ("" if high is None else f" <= {high}")
        raise ScenarioError(
            f"protocol {adapter.protocol_id!r}: params[{name!r}]={value!r}"
            f" is out of range; need {bound}"
        )


class RegisterAdapter(StorageAdapter):
    """The crash-model count-quorum baselines — classic ABD, the
    Section 1.2 fast variant and the broken greedy algorithm of
    Figure 1 — each one row of :data:`repro.storage.abd.PROTOCOLS`:
    ``params["n"]`` servers (``1..n``), up to ``params["t"]`` crash
    failures, ``params["fast"]`` acks to exit a write round early.  The
    defaults are the paper's Section 1.2 instance (``n=5, t=2,
    fast=4``); every row refuses ``n < 1``, ``t`` outside ``0..n-1`` and
    ``fast`` outside ``1..n``, even the rows whose thresholds do not
    depend on ``t`` or ``fast``."""

    def __init__(self, spec):
        _unsupported_roles(self, spec)
        _unsupported_strategy(self, spec)
        n, t = spec.param("n", 5), spec.param("t", 2)
        fast = spec.param("fast", 4)
        _require_range(self, "n", n, 1)
        _require_range(self, "t", t, 0, n - 1)
        _require_range(self, "fast", fast, 1, n)
        super().__init__(spec)
        protocol = PROTOCOLS[self.protocol_id]
        server_ids = tuple(range(1, n + 1))
        self._bind(
            spec, server_ids,
            lambda sid: RegisterServer(sid, protocol.slots),
            lambda pid, writer_id: RegisterWriter(
                pid, server_ids, self.trace, protocol, t, fast,
                spec.delta, writer_id=writer_id,
            ),
            lambda pid: RegisterReader(
                pid, server_ids, self.trace, protocol, t, spec.delta
            ),
        )


# One registration per table row (a subclass each, because
# ``register_protocol`` stamps the id on the class it registers).  The
# naive row never writes back, so its multi-writer stamps order nothing.
for _protocol_id, _row in PROTOCOLS.items():
    register_protocol(_protocol_id)(type(
        f"RegisterAdapter[{_protocol_id}]", (RegisterAdapter,),
        {"multi_writer_stamps": _row is not NAIVE},
    ))
