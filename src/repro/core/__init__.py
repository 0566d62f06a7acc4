"""Core refined-quorum-system abstractions (the paper's contribution).

Public surface:

* :class:`~repro.core.adversary.Adversary` and its two implementations,
  :class:`~repro.core.adversary.ThresholdAdversary` (``B_k``) and
  :class:`~repro.core.adversary.ExplicitAdversary`.
* :class:`~repro.core.rqs.RefinedQuorumSystem` — Definition 2 with full
  validation and witness extraction.
* :mod:`~repro.core.constructions` — every example of Section 2.2.
* :mod:`~repro.core.search` — RQS discovery for a given adversary.
* :mod:`~repro.core.metrics` — load/availability (Section 6 directions),
  the load solved by the exact strategy LP of :mod:`~repro.core.strategy`.
"""

from repro import _lazy

__getattr__, __dir__ = _lazy(globals(), {
    **dict.fromkeys(
        ("Adversary", "ExplicitAdversary", "ThresholdAdversary",
         "as_subset"),
        "repro.core.adversary",
    ),
    **dict.fromkeys(("RefinedQuorumSystem", "describe"), "repro.core.rqs"),
    **dict.fromkeys(
        ("P1Witness", "P2Witness", "P3Witness", "check_property1",
         "check_property2", "check_property3", "p3a", "p3b"),
        "repro.core.properties",
    ),
})

__all__ = [
    "Adversary",
    "ExplicitAdversary",
    "ThresholdAdversary",
    "RefinedQuorumSystem",
    "describe",
    "as_subset",
    "P1Witness",
    "P2Witness",
    "P3Witness",
    "check_property1",
    "check_property2",
    "check_property3",
    "p3a",
    "p3b",
]
