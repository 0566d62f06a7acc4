"""The RQS-based Byzantine atomic storage algorithm (Figures 5-7), its
Section 6 regular-semantics reader, and the count-quorum baseline
kernel (:mod:`repro.storage.abd`: ABD, the Section 1.2 fast variant and
the broken Figure 1 algorithm as three rows of one table).

This package holds processes only — servers, writers, readers and their
messages.  Deployments are wired from a
:class:`~repro.scenarios.ScenarioSpec` by the protocol adapters of
:mod:`repro.scenarios` (``"rqs-storage"``, ``"rqs-regular"``, ``"abd"``,
``"fastabd"``, ``"naive"``)."""

from repro import _lazy

__getattr__, __dir__ = _lazy(globals(), {
    **dict.fromkeys(
        ("BOTTOM", "History", "HistoryView", "Pair"), "repro.storage.history"
    ),
    **dict.fromkeys(("RD", "RdAck", "WR", "WrAck"), "repro.storage.messages"),
    "ReadState": "repro.storage.predicates",
    "StorageReader": "repro.storage.reader",
    **dict.fromkeys(
        ("StorageServer", "SilentServer", "FabricatingServer",
         "ForgetfulServer"),
        "repro.storage.server",
    ),
    "RegularReader": "repro.storage.regular",
    "StorageWriter": "repro.storage.writer",
})

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
