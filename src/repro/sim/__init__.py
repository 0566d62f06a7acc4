"""Deterministic discrete-event simulation substrate.

The executable instance of the paper's system model: processes as
automata, point-to-point channels, synchrony as a bound ``Δ`` on message
delay, asynchrony as messages held in transit, crash and Byzantine
failures.
"""

from repro.sim.conditions import (
    AckSet,
    Check,
    Condition,
    ConditionMap,
    Event,
)
from repro.sim.simulator import Simulator
from repro.sim.tasks import Task, WaitUntil
from repro.sim.network import (
    DROP,
    HOLD,
    Delay,
    Drop,
    Hold,
    Message,
    Network,
    TraceLevel,
)
from repro.sim.process import Process
from repro.sim.trace import OperationRecord, Trace

__all__ = [
    "AckSet",
    "Check",
    "Condition",
    "ConditionMap",
    "Event",
    "Simulator",
    "Task",
    "TraceLevel",
    "WaitUntil",
    "Message",
    "Network",
    "Hold",
    "Drop",
    "Delay",
    "HOLD",
    "DROP",
    "Process",
    "OperationRecord",
    "Trace",
]
