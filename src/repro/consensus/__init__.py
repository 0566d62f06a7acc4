"""The RQS-based Byzantine consensus algorithm (Figures 9-15) plus
baselines (crash Paxos, PBFT-lite).

This package holds processes only — proposers, acceptors, learners and
their messages.  Deployments are wired from a
:class:`~repro.scenarios.ScenarioSpec` by the protocol adapters of
:mod:`repro.scenarios` (``"rqs-consensus"``, ``"paxos"``, ``"pbft"``)."""

from repro.consensus.acceptor import INIT_VIEW, Acceptor
from repro.consensus.choose import ChooseResult, choose
from repro.consensus.decisions import DecisionTracker
from repro.consensus.learner import Learner
from repro.consensus.messages import (
    AckData,
    Decision,
    DecisionPull,
    NewView,
    NewViewAck,
    Prepare,
    SignAck,
    SignReq,
    Sync,
    Update,
    ViewChange,
)
from repro.consensus.proposer import EquivocatingProposer, Proposer

__all__ = [
    "INIT_VIEW",
    "Acceptor",
    "ChooseResult",
    "choose",
    "DecisionTracker",
    "Learner",
    "AckData",
    "Decision",
    "DecisionPull",
    "NewView",
    "NewViewAck",
    "Prepare",
    "SignAck",
    "SignReq",
    "Sync",
    "Update",
    "ViewChange",
    "EquivocatingProposer",
    "Proposer",
]
