"""Regular (non-atomic) storage — a Section 6 extension.

The paper's concluding section observes that for *regular* semantics
(Lamport's weaker register: a read not concurrent with any write returns
the last written value; a concurrent read may also return a concurrently
written value) Properties 1 and 3a of RQS suffice — the class-1
machinery and the atomicity write-back exist only to prevent the read
inversions that regularity permits.

:class:`RegularReader` is the first part of the Figure 7 reader (lines
20-35) with **no write-back at all**: it returns ``csel`` as soon as the
candidate set is non-empty.  Consequences, demonstrated by the tests:

* synchronous uncontended reads are **always single-round** — even when
  only a class-3 quorum is correct (faster than the atomic reader);
* the resulting histories are regular but can exhibit read inversion
  (which :func:`repro.analysis.regularity.check_swmr_regularity`
  accepts and the atomicity checker rejects).

Writes are the unchanged three-round Figure 5 writer.
"""

from __future__ import annotations

from functools import partial
from typing import Hashable

from repro.sim.tasks import WaitUntil
from repro.storage.history import DEFAULT_KEY
from repro.storage.messages import RD
from repro.storage.predicates import ReadState
from repro.storage.reader import StorageReader
from repro.storage.system import StorageSystem


class RegularReader(StorageReader):
    """A reader providing regular (not atomic) semantics."""

    def read(self, key=DEFAULT_KEY):
        record = self.trace.begin("read", self.pid, self.sim.now, key=key)
        self.read_no += 1
        self._current_read_no = self.read_no
        state = ReadState(self.rqs)
        self._state = state

        read_rnd = 0
        while True:
            read_rnd += 1
            timer = (
                self.sim.timer_at(self.sim.now + self.timeout)
                if read_rnd == 1
                else None
            )
            self.send_all(
                self.rqs.servers, RD(self.read_no, read_rnd, key)
            )

            quorum_cond = state.when(
                partial(state.round_quorum, read_rnd),
                f"regular-read#{self.read_no} round {read_rnd}",
            )
            try:
                yield WaitUntil(quorum_cond)
            finally:
                state.unwatch(quorum_cond)
            if read_rnd == 1:
                yield WaitUntil(
                    timer, f"regular-read#{self.read_no} round-1 timer"
                )
                state.freeze_round1()
            candidates = state.candidates()
            if candidates:
                csel = max(candidates, key=lambda p: p.ts)
                break

        # Regular semantics: no write-back, return immediately.
        self.trace.complete(record, self.sim.now, csel.val, rounds=read_rnd)
        return record


class RegularStorageSystem(StorageSystem):
    """A :class:`StorageSystem` whose readers are regular readers."""

    def make_reader(self, pid: Hashable) -> RegularReader:
        return RegularReader(pid, self.rqs, self.trace, delta=self.delta)
