"""Generic Byzantine behaviour strategies.

Concrete protocol attacks (e.g. a storage server forging its ``history``)
live next to the protocols; this module provides the protocol-agnostic
building blocks used by resilience tests and the proof replays:

* :class:`Silent` — never responds (crash-equivalent, time-0).
* :class:`SilentAfter` — behaves correctly until a trigger time, then
  goes silent ("forget about round 2 of rd" in Figure 4's ex4).
* :class:`Mimic` — runs a benign automaton but applies a payload
  transformation to outgoing replies (equivocation / value forging).
* :class:`StateForger` — runs a benign automaton whose state is replaced
  at a trigger time (the σ0/σ1 forgeries of the Theorem 3 proof).
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.network import Message


class ByzantineBehavior:
    """Base strategy: receives deliveries, drives the faulty process."""

    def attach(self, process: Any) -> None:
        """Called once when the behaviour is installed on a process
        (at construction — the simulator is not reachable yet)."""
        self.process = process

    def on_bind(self, process: Any) -> None:
        """Called when the process binds to a network; the simulator is
        available from here on (schedule triggers here)."""

    def on_message(self, process: Any, message: Message) -> None:
        """Handle a delivery; default is to ignore it (silence)."""


class Silent(ByzantineBehavior):
    """Never respond to anything."""


class SilentAfter(ByzantineBehavior):
    """Delegate to a benign handler until ``trigger_time``, then silence."""

    def __init__(self, benign_handler: Callable[[Any, Message], None], trigger_time: float):
        self.benign_handler = benign_handler
        self.trigger_time = trigger_time

    def on_message(self, process: Any, message: Message) -> None:
        if process.sim.now < self.trigger_time:
            self.benign_handler(process, message)


class Mimic(ByzantineBehavior):
    """Run a benign handler, transforming what gets sent out.

    ``transform(dst, payload) -> Optional[payload]`` returns the payload
    to really send, or ``None`` to suppress the send.  Installation works
    by wrapping the process ``send`` method, so the benign handler code
    needs no changes.
    """

    def __init__(
        self,
        benign_handler: Callable[[Any, Message], None],
        transform: Callable[[Any, Any], Optional[Any]],
    ):
        self.benign_handler = benign_handler
        self.transform = transform

    def attach(self, process: Any) -> None:
        super().attach(process)
        original_inject = process.inject

        def sending(dst, payload):
            replacement = self.transform(dst, payload)
            if replacement is not None:
                original_inject(dst, replacement)

        def sending_all(destinations, payload):
            for dst in destinations:
                sending(dst, payload)

        process.send = sending  # type: ignore[assignment]
        process.send_all = sending_all  # type: ignore[assignment]

    def on_message(self, process: Any, message: Message) -> None:
        self.benign_handler(process, message)


class StateForger(ByzantineBehavior):
    """Behave benignly, but replace local state at ``trigger_time``.

    ``forge(process)`` mutates the process state (e.g. reset a storage
    server's history to the initial state σ0, or install a fabricated
    σ1).  Used by the Theorem 3/6 proof replays.
    """

    def __init__(
        self,
        benign_handler: Callable[[Any, Message], None],
        forge: Callable[[Any], None],
        trigger_time: float,
    ):
        self.benign_handler = benign_handler
        self.forge = forge
        self.trigger_time = trigger_time
        self._forged = False

    def on_bind(self, process: Any) -> None:
        process.sim.call_at(self.trigger_time, self._do_forge)

    def _do_forge(self) -> None:
        if not self._forged:
            self._forged = True
            self.forge(self.process)

    def on_message(self, process: Any, message: Message) -> None:
        self.benign_handler(process, message)
