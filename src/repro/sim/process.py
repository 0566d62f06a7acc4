"""The process base class: benign, crash-faulty and Byzantine processes.

Processes follow the paper's model (Section 3.1):

* a **benign** process follows its automaton; it may *crash* and then
  takes no further steps (neither receives nor sends);
* a **Byzantine** process can deviate arbitrarily — it is a protocol
  subclass that overrides the handlers it lies in and sets
  ``benign = False`` (``repro.storage.server.FabricatingServer``,
  ``repro.consensus.proposer.EquivocatingProposer``, …), installed by a
  :class:`~repro.scenarios.faults.ByzantineRole` of the run's
  ``FaultPlan``.

A process is bound to a :class:`~repro.sim.network.Network` before the
simulation starts; sending before binding is a configuration error.
"""

from __future__ import annotations

from typing import Any, Hashable, List, Optional

from repro.errors import SimulationError
from repro.sim.network import Message, Network


class Process:
    """A deterministic automaton attached to the network."""

    def __init__(self, pid: Hashable):
        self.pid = pid
        self.network: Optional[Network] = None
        self.crashed = False
        self.crash_time: Optional[float] = None
        self.delivered: List[Message] = []

    # -- wiring ---------------------------------------------------------------

    def bind(self, network: Network) -> "Process":
        self.network = network
        network.register(self)
        return self

    @property
    def sim(self):
        if self.network is None:
            raise SimulationError(f"process {self.pid!r} is not bound")
        return self.network.sim

    # -- fault injection --------------------------------------------------------

    def crash(self) -> None:
        """Stop taking steps from now on (crash failure)."""
        if not self.crashed:
            self.crashed = True
            self.crash_time = self.sim.now

    def schedule_crash(self, time: float) -> None:
        """Crash at absolute simulated ``time``."""
        self.sim.call_at(time, self.crash)

    @property
    def benign(self) -> bool:
        """Correct or crash-faulty (never Byzantine); a Byzantine
        subclass sets ``benign = False``."""
        return True

    # -- messaging -----------------------------------------------------------------

    def send(self, dst: Hashable, payload: Any) -> None:
        """Send unless crashed (crashed processes take no steps)."""
        if self.crashed:
            return
        if self.network is None:
            raise SimulationError(f"process {self.pid!r} is not bound")
        self.network.send(self.pid, dst, payload)

    def send_all(self, destinations, payload: Any) -> None:
        """Broadcast: the crashed/bound checks once, not per destination."""
        if self.crashed:
            return
        if self.network is None:
            raise SimulationError(f"process {self.pid!r} is not bound")
        self.network.send_all(self.pid, destinations, payload)

    def receive(self, message: Message) -> None:
        """Network entry point; drops deliveries to crashed processes.

        Under :class:`~repro.sim.network.TraceLevel` ``METRICS`` the
        per-process ``delivered`` history is not retained (the record
        would be the last reference keeping every consumed message
        alive).
        """
        if self.crashed:
            return
        if self.network.full_trace:
            self.delivered.append(message)
        self.on_message(message)

    def on_message(self, message: Message) -> None:
        """Protocol handler; subclasses override."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.pid!r}, {state})"
