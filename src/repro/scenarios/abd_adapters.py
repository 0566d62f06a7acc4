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

from repro.scenarios.adapters import (
    StorageAdapter,
    _byzantine_factories,
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


#: The paper's Section 1.2 deployment, the one every kernel row runs:
#: five servers ``1..5``, up to two crash failures, and fast write
#: quorums of four.
KERNEL_SERVERS = 5
KERNEL_T = 2
KERNEL_FAST = 4


class RegisterAdapter(StorageAdapter):
    """The crash-model count-quorum baselines — classic ABD, the
    Section 1.2 fast variant and the broken greedy algorithm of
    Figure 1 — each one row of :data:`repro.storage.abd.PROTOCOLS`,
    deployed on the paper's Section 1.2 instance:
    :data:`KERNEL_SERVERS` servers, up to :data:`KERNEL_T` crash
    failures, :data:`KERNEL_FAST` acks to exit a write round early."""

    def __init__(self, spec):
        _byzantine_factories(self, spec)
        _unsupported_strategy(self, spec)
        super().__init__(spec)
        protocol = PROTOCOLS[self.protocol_id]
        server_ids = tuple(range(1, KERNEL_SERVERS + 1))
        delta = self.network.delta
        self._bind(
            spec, server_ids,
            lambda sid: RegisterServer(sid, protocol.slots),
            lambda pid, writer_id: RegisterWriter(
                pid, server_ids, self.trace, protocol, KERNEL_T,
                KERNEL_FAST, delta, writer_id=writer_id,
            ),
            lambda pid: RegisterReader(
                pid, server_ids, self.trace, protocol, KERNEL_T, delta
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
