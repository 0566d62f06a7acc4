"""Decision detection shared by acceptors and learners (Figure 15, 51-53).

Every acceptor and learner decides a value ``v`` in view ``w`` upon
receiving

* the same ``update1⟨v, w, ∗⟩`` from a class-1 quorum (2 message delays),
* the same ``update2⟨v, w, Q2⟩`` from the class-2 quorum ``Q2`` itself
  (note the payload quorum id must equal the sender quorum), or
* the same ``update3⟨v, w, ∗⟩`` from any quorum (4 message delays).
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Hashable, Optional, Set, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.consensus.messages import Update

AcceptorId = Hashable
QuorumId = FrozenSet[AcceptorId]


class DecisionTracker:
    """Accumulates update messages and fires the decide rules.

    Who sent a statement is a *sender mask* over ``rqs.index`` (a
    process outside ``S`` has no bit), so one more update costs a few
    integer operations: a rule over many quorums (steps 1 and 3) can
    only start to hold through the sender that just arrived, and holds
    forever once it does; the step-2 rule names its one quorum, so the
    tracker keeps the members of it still to be heard from.
    """

    def __init__(self, rqs: RefinedQuorumSystem):
        self.rqs = rqs
        self._index = rqs.index
        # (step, value, view) -> sender mask, payload quorum ignored
        self._masks: Dict[Tuple[int, Any, int], int] = {}
        # the step-1/3 statements whose decide rule holds
        self._decided: Set[Tuple[int, Any, int]] = set()
        # (value, view, class-2 payload quorum) -> the quorum's members
        # that have not sent it yet (step 2 exact-match rule)
        self._missing: Dict[Tuple[Any, int, QuorumId], int] = {}
        #: The sender mask of the statement :meth:`record` was last fed
        #: (that sender included): the acceptor's cascade reads it
        #: instead of looking the statement up again.
        self.mask = 0

    def record(self, sender: AcceptorId, update: Update) -> Optional[Any]:
        """Feed one update message; return the decided value, if any."""
        index = self._index
        bit = index.bit.get(sender, 0)
        step, value = update.step, update.value
        key = (step, value, update.view)
        before = self._masks.get(key, 0)
        mask = self.mask = self._masks[key] = before | bit
        if step == 2:
            # Only a class-1 or class-2 payload quorum can decide; no
            # payload quorum, or one that is not a quorum, is class 4.
            quorum = update.quorum
            if index.class_of.get(quorum, 4) > 2:
                return None
            exact = (value, update.view, quorum)
            missing = self._missing.get(exact)
            if missing is None:
                missing = index.mask(quorum)
            missing = self._missing[exact] = missing & ~bit
            return value if missing == 0 else None
        if step == 1 or step == 3:
            if key in self._decided:
                return value
            if mask != before and index.newly_responding(
                mask, bit, 1 if step == 1 else 3
            ):
                self._decided.add(key)
                return value
        return None
