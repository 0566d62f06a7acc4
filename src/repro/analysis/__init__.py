"""Correctness checkers and latency accounting."""

from repro.analysis.consensus_check import ConsensusReport, check_consensus
from repro.analysis.latency import LatencySummary
from repro.analysis.streaming import (
    OnlineChecker,
    OnlineReport,
    OnlineViolation,
    check_history,
)

__all__ = [
    "ConsensusReport",
    "check_consensus",
    "LatencySummary",
    "OnlineChecker",
    "OnlineReport",
    "OnlineViolation",
    "check_history",
]
