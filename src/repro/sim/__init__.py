"""Deterministic discrete-event simulation substrate.

The executable instance of the paper's system model: processes as
automata, point-to-point channels, synchrony as a bound ``Δ`` on message
delay, asynchrony as messages held in transit, crash and Byzantine
failures.
"""

from repro.sim.conditions import (
    AckSet,
    AllOf,
    AnyOf,
    Check,
    Condition,
    ConditionMap,
    Counter,
    Event,
)
from repro.sim.simulator import Simulator
from repro.sim.tasks import Sleep, Task, WaitUntil
from repro.sim.network import (
    DROP,
    HOLD,
    Message,
    Network,
    Rule,
    TraceLevel,
    delay_rule,
    drop_rule,
    hold_rule,
)
from repro.sim.process import Process
from repro.sim.trace import OperationRecord, Trace

__all__ = [
    "AckSet",
    "AllOf",
    "AnyOf",
    "Check",
    "Condition",
    "ConditionMap",
    "Counter",
    "Event",
    "Simulator",
    "Sleep",
    "Task",
    "TraceLevel",
    "WaitUntil",
    "Message",
    "Network",
    "Rule",
    "HOLD",
    "DROP",
    "delay_rule",
    "drop_rule",
    "hold_rule",
    "Process",
    "OperationRecord",
    "Trace",
]
