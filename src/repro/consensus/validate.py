"""Validation of authenticated consensus artifacts.

* :func:`validate_new_view_ack` — the "valid acks" check of Figure 15
  line 4: the ack is signed by its sender, and every claimed update is
  backed by ``Updateproof`` signatures of the matching update statement
  from a *basic* subset of acceptors (so at least one benign acceptor
  really sent it).
* :func:`validate_view_proof` — "viewProof matches view" (line 21): a
  quorum of validly-signed ``view_change⟨view⟩`` messages.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.rqs import RefinedQuorumSystem
from repro.crypto.signatures import SignatureService, Signed
from repro.consensus.messages import (
    AckData,
    NewViewAck,
    ViewChange,
    update_statement,
)

AcceptorId = Hashable


def view_change_statement(view: int) -> Tuple:
    return ("view_change", view)


def validate_new_view_ack(
    service: SignatureService,
    rqs: RefinedQuorumSystem,
    sender: AcceptorId,
    ack: NewViewAck,
    expected_view: int,
) -> bool:
    """Is this a valid ``new_view_ack`` from ``sender`` for the view?"""
    body = ack.body
    if body.view != expected_view:
        return False
    signature = ack.signature
    if signature.signer != sender:
        return False
    if signature.content != service.canonical(body):
        return False
    if not service.verify(signature):
        return False
    for step in (1, 2):
        value = body.update.get(step)
        for view in body.update_view.get(step, frozenset()):
            proof = body.update_proof_of(step, view)
            statement = update_statement(step, value, view)
            signers = set()
            for signed in proof:
                if signed.content != statement or not service.verify(signed):
                    return False
                signers.add(signed.signer)
            if not rqs.is_basic(signers):
                return False
    return True


def validate_view_proof(
    service: SignatureService,
    rqs: RefinedQuorumSystem,
    view: int,
    view_proof: Optional[Iterable[ViewChange]],
) -> bool:
    """A quorum of genuine ``view_change⟨view⟩`` signatures?"""
    if view_proof is None:
        return False
    statement = view_change_statement(view)
    signers = set()
    for message in view_proof:
        signed = message.signature
        if message.next_view != view or signed.content != statement:
            return False
        if not service.verify(signed):
            return False
        signers.add(signed.signer)
    return rqs.contains_quorum(signers)
