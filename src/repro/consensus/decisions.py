"""Decision detection shared by acceptors and learners (Figure 15, 51-53).

Every acceptor and learner decides a value ``v`` in view ``w`` upon
receiving

* the same ``update1⟨v, w, ∗⟩`` from a class-1 quorum (2 message delays),
* the same ``update2⟨v, w, Q2⟩`` from the class-2 quorum ``Q2`` itself
  (note the payload quorum id must equal the sender quorum), or
* the same ``update3⟨v, w, ∗⟩`` from any quorum (4 message delays).
"""

from __future__ import annotations

from typing import Any, FrozenSet, Hashable, Optional

from repro.core.rqs import RefinedQuorumSystem
from repro.sim.conditions import AckSet, ConditionMap
from repro.consensus.messages import Update

AcceptorId = Hashable
QuorumId = FrozenSet[AcceptorId]


class DecisionTracker:
    """Accumulates update messages and fires the decide rules.

    Sender sets are signalling :class:`~repro.sim.conditions.AckSet`
    containers (condition-native consensus internals): tasks and tests
    can derive indexed wait conditions from them (``includes_quorum``
    over the system's ``contains_quorum``) instead of polling, and the
    tracker's own checks keep reading them as plain sets.
    """

    def __init__(self, rqs: RefinedQuorumSystem):
        self.rqs = rqs
        # (step, value, view) -> senders, payload quorum ignored (steps 1, 3)
        self._senders = ConditionMap(AckSet, "update{} v={!r} w={}")
        # (value, view, payload quorum) -> senders (step 2 exact-match rule)
        self._senders2 = ConditionMap(AckSet, "update2 v={!r} w={} q={}")

    def senders(self, step: int, value: Any, view: int) -> AckSet:
        """The (signalling) sender set of one update statement."""
        return self._senders(step, value, view)

    def record(self, sender: AcceptorId, update: Update) -> Optional[Any]:
        """Feed one update message; return the decided value, if any."""
        self._senders(update.step, update.value, update.view).add(sender)
        if update.step == 2 and update.quorum is not None:
            self._senders2(update.value, update.view, update.quorum).add(
                sender
            )
        return self._check(update)

    def _check(self, update: Update) -> Optional[Any]:
        senders = self._senders(update.step, update.value, update.view)
        if update.step == 1:
            if self.rqs.contains_quorum(senders, cls=1):
                return update.value
        elif update.step == 2 and update.quorum is not None:
            exact = self._senders2(update.value, update.view, update.quorum)
            if update.quorum in set(self.rqs.qc2) and update.quorum <= exact:
                return update.value
        elif update.step == 3:
            if self.rqs.contains_quorum(senders):
                return update.value
        return None
