"""The RQS-based Byzantine atomic storage algorithm (Figures 5-7), its
Section 6 regular-semantics reader, and the count-quorum baseline
kernel (:mod:`repro.storage.abd`: ABD, the Section 1.2 fast variant and
the broken Figure 1 algorithm as three rows of one table).

This package holds processes only — servers, writers, readers and their
messages.  Deployments are wired from a
:class:`~repro.scenarios.ScenarioSpec` by the protocol adapters of
:mod:`repro.scenarios` (``"rqs-storage"``, ``"rqs-regular"``, ``"abd"``,
``"fastabd"``, ``"naive"``)."""

from repro.storage.history import BOTTOM, History, HistoryView, Pair
from repro.storage.messages import RD, RdAck, WR, WrAck
from repro.storage.predicates import ReadState
from repro.storage.reader import StorageReader
from repro.storage.server import (
    FabricatingServer,
    ForgetfulServer,
    SilentServer,
    StorageServer,
)
from repro.storage.regular import RegularReader
from repro.storage.writer import StorageWriter

__all__ = [
    "BOTTOM",
    "History",
    "HistoryView",
    "Pair",
    "RD",
    "RdAck",
    "WR",
    "WrAck",
    "ReadState",
    "StorageReader",
    "StorageServer",
    "SilentServer",
    "FabricatingServer",
    "ForgetfulServer",
    "RegularReader",
    "StorageWriter",
]
