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
simulation starts; ``bind`` sets ``network`` and ``sim``, and sending or
reading the simulator before binding is a configuration error.  The
network (``Network._deliver``) calls :meth:`Process.on_message` itself,
with the delivery's sender and payload: ``on_message(src, payload)``,
no envelope, and drops what reaches a crashed process.  A process keeps
no history of what it received: at ``TraceLevel.FULL`` the network's
:attr:`~repro.sim.network.Network.log` has every message.
"""

from __future__ import annotations

from typing import Any, Hashable, Optional

from repro.errors import SimulationError
from repro.sim.network import Network


class _Unbound(tuple):
    """``Process.sim`` until ``bind``: the ``(pid,)`` of the process, off
    which reading any simulator attribute raises.  (A tuple, so making
    one per process costs no Python call.)"""

    __slots__ = ()

    def __getattr__(self, name: str):
        raise SimulationError(f"process {self[0]!r} is not bound")


class Process:
    """A deterministic automaton attached to the network."""

    def __init__(self, pid: Hashable):
        self.pid = pid
        self.network: Optional[Network] = None
        self.sim = _Unbound((pid,))
        self.crashed = False
        self.crash_time: Optional[float] = None

    # -- wiring ---------------------------------------------------------------

    def bind(self, network: Network) -> "Process":
        self.network = network
        self.sim = network.sim
        network.register(self)
        return self

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

    def on_message(self, src: Hashable, payload: Any) -> None:
        """Protocol handler; subclasses override.  Called by the network
        with the sender and payload of every message delivered while the
        process is up."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "crashed" if self.crashed else "up"
        return f"{type(self).__name__}({self.pid!r}, {state})"
