"""The wiring every storage deployment shares.

A deployment is a simulator, a network, a trace, a set of servers
(with optional crash schedules), a writer fleet and some readers.
:class:`Deployment` assembles them once, in the bind order every
pinned execution depends on (servers, then writers, then readers);
the concrete systems — :class:`~repro.storage.system.StorageSystem`
for the RQS algorithm, :class:`~repro.storage.abd.RegisterSystem` for
the count-quorum baselines — only say how to build *their* server,
writer and reader.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterable, List, Optional, Sequence

from repro.sim.network import Network, Rule, TraceLevel
from repro.sim.process import Process
from repro.sim.simulator import Simulator
from repro.sim.trace import OperationRecord, Trace
from repro.storage.history import DEFAULT_KEY
from repro.storage.stamping import writer_fleet


class Deployment:
    """A wired storage deployment over a simulated network.

    Subclasses set whatever their factories need *before* calling
    ``super().__init__`` and implement :meth:`make_server`,
    :meth:`make_writer` and :meth:`make_reader`; binding, crash
    scheduling and client naming happen here.
    """

    def __init__(
        self,
        server_ids: Iterable[Hashable],
        n_readers: int = 2,
        delta: float = 1.0,
        crash_times: Optional[Dict[Hashable, float]] = None,
        rules: Optional[Sequence[Rule]] = None,
        trace_level: TraceLevel = TraceLevel.FULL,
        n_writers: int = 1,
    ):
        self.server_ids = tuple(server_ids)
        self.delta = delta
        self.sim = Simulator()
        self.network = Network(
            self.sim, delta=delta, rules=list(rules or []),
            trace_level=trace_level,
        )
        self.trace = Trace(
            retain=self.network.trace_level >= TraceLevel.FULL
        )
        self.servers: Dict[Hashable, Any] = {
            sid: self.make_server(sid).bind(self.network)
            for sid in self.server_ids
        }
        for sid, time in (crash_times or {}).items():
            self.servers[sid].schedule_crash(time)
        self.writers: List[Any] = writer_fleet(
            n_writers,
            lambda pid, writer_id: self.make_writer(pid, writer_id).bind(
                self.network
            ),
        )
        self.writer = self.writers[0]
        self.readers: List[Any] = [
            self.make_reader(f"reader{index + 1}").bind(self.network)
            for index in range(n_readers)
        ]

    # -- what a concrete system supplies --------------------------------------

    def make_server(self, sid: Hashable) -> Process:
        raise NotImplementedError

    def make_writer(self, pid: Hashable, writer_id: Optional[int]) -> Process:
        raise NotImplementedError

    def make_reader(self, pid: Hashable) -> Process:
        raise NotImplementedError

    # -- synchronous convenience API (examples / quickstart) ------------------

    def _run_now(self, operation, name: str) -> OperationRecord:
        task = self.sim.spawn(operation, name)
        self.sim.run_to_completion(strict=False)
        if not task.done():
            raise TimeoutError(f"{name} blocked: no responsive quorum")
        return task.result

    def write(
        self, value: Any, key: Hashable = DEFAULT_KEY
    ) -> OperationRecord:
        """Invoke a write now and run the simulation until it completes."""
        return self._run_now(
            self.writer.write(value, key), f"write({value!r})"
        )

    def read(
        self, reader_index: int = 0, key: Hashable = DEFAULT_KEY
    ) -> OperationRecord:
        """Invoke a read now and run the simulation until it completes."""
        reader = self.readers[reader_index]
        return self._run_now(reader.read(key), f"{reader.pid}.read()")
