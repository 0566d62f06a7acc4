"""Exception hierarchy for the ``repro`` library.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` and friends) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class AdversaryError(ReproError):
    """An adversary structure is malformed (e.g. not subset-closed)."""


class QuorumSystemError(ReproError):
    """A (refined) quorum system is malformed or violates its properties."""


class PropertyViolation(QuorumSystemError):
    """A specific RQS property does not hold.

    Attributes
    ----------
    property_name:
        One of ``"P1"``, ``"P2"``, ``"P3"``.
    witness:
        A tuple of the sets witnessing the violation (shape depends on the
        property; see :mod:`repro.core.properties`).
    """

    def __init__(self, property_name: str, witness: tuple, message: str = ""):
        self.property_name = property_name
        self.witness = witness
        text = message or f"RQS property {property_name} violated: {witness!r}"
        super().__init__(text)


class SimulationError(ReproError):
    """The simulation reached an invalid state (bug or bad configuration)."""


class DeadlockError(SimulationError):
    """The event queue drained while tasks were still blocked."""


class ProtocolError(ReproError):
    """A protocol implementation observed an impossible condition."""


class ScenarioError(ReproError):
    """A scenario specification is malformed or unsupported."""


class UnknownProtocolError(ScenarioError):
    """A scenario names a protocol id that was never registered."""


class CheckerError(ReproError):
    """A correctness checker was fed a malformed history."""

