"""Correctness checkers and latency accounting."""

from repro.analysis.atomicity import (
    AtomicityReport,
    Violation,
    check_swmr_atomicity,
)
from repro.analysis.consensus_check import ConsensusReport, check_consensus
from repro.analysis.latency import LatencySummary, summarize_rounds
from repro.analysis.linearizability import is_linearizable
from repro.analysis.regularity import RegularityReport, check_swmr_regularity

__all__ = [
    "AtomicityReport",
    "Violation",
    "check_swmr_atomicity",
    "ConsensusReport",
    "check_consensus",
    "LatencySummary",
    "summarize_rounds",
    "is_linearizable",
    "RegularityReport",
    "check_swmr_regularity",
]
