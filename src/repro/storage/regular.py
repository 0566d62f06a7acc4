"""Regular (non-atomic) storage — a Section 6 extension.

The paper's concluding section observes that for *regular* semantics
(Lamport's weaker register: a read not concurrent with any write returns
the last written value; a concurrent read may also return a concurrently
written value) Properties 1 and 3a of RQS suffice — the class-1
machinery and the atomicity write-back exist only to prevent the read
inversions that regularity permits.

:class:`RegularReader` is the first part of the Figure 7 reader (lines
20-35) with **no write-back at all**: its atomicity part is the empty
plan, so it returns ``csel`` as soon as the candidate set is non-empty.
Consequences, demonstrated by the tests:

* synchronous uncontended reads are **always single-round** — even when
  only a class-3 quorum is correct (faster than the atomic reader);
* the resulting histories are regular but can exhibit read inversion.

Writes are the unchanged three-round Figure 5 writer.  The reader runs
as the ``"rqs-regular"`` protocol of :mod:`repro.scenarios` (the
rqs-storage deployment with this class as its reader), whose adapter
claims ``"regular"``: its runs are judged by the register checker
without the read-inversion rule
(:class:`~repro.analysis.streaming.OnlineChecker`), which an
inversion therefore passes and an ``"atomic"`` claim would convict.
A batched read takes the same empty plan per element (the inherited
``read_batch`` asks :meth:`RegularReader._plan`), so it sends no
write-back either.
"""

from __future__ import annotations

from repro.storage.reader import StorageReader


class RegularReader(StorageReader):
    """A reader providing regular (not atomic) semantics."""

    def _plan(self, state, csel, read_rnd):
        # Regular semantics: no write-back, return immediately.
        return None
