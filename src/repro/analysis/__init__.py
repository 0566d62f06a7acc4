"""Correctness checkers and latency accounting."""

from repro import _lazy

__getattr__, __dir__ = _lazy(globals(), {
    **dict.fromkeys(
        ("ConsensusReport", "check_consensus"),
        "repro.analysis.consensus_check",
    ),
    "LatencySummary": "repro.analysis.latency",
    **dict.fromkeys(
        ("OnlineChecker", "OnlineReport", "OnlineViolation",
         "check_history"),
        "repro.analysis.streaming",
    ),
})

__all__ = [
    "ConsensusReport",
    "check_consensus",
    "LatencySummary",
    "OnlineChecker",
    "OnlineReport",
    "OnlineViolation",
    "check_history",
]
