"""Asymmetric read/write refined quorum systems — a Section 6 extension.

The paper's concluding section lists "the extension of RQS with respect
to asymmetric read and write quorums" as an open direction.  This module
provides a first-class construction for it: distinct *write* and *read*
quorum families, with the refined classes living on the read side (reads
are what the best-case machinery accelerates), and the intersection
properties re-stated across the two families:

* **AP1** — every read quorum intersects every write quorum in a basic
  subset (the cross-family analogue of Property 1; within-family
  intersection is *not* required, which is exactly the saving
  asymmetric systems offer).
* **AP2** — the intersection of any two class-1 read quorums with any
  write quorum is large (analogue of Property 2).
* **AP3** — for every class-2 read quorum ``R2``, write quorum ``W``
  and ``B ∈ B``: ``P3a(R2, W, B)`` or ``P3b(R2, W, B)`` with P3b
  quantified over class-1 *read* quorums (analogue of Property 3).

Smaller write quorums lower write latency/load at the price of read
availability — quantified by :func:`write_read_tradeoff`.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Hashable, Iterable, Optional, Tuple

from repro.core.adversary import Adversary, ThresholdAdversary
from repro.core import properties as props
from repro.core.rqs import RefinedQuorumSystem
from repro.errors import QuorumSystemError

Subset = FrozenSet[Hashable]


class AsymmetricRQS:
    """A refined quorum system with separate write and read families."""

    def __init__(
        self,
        adversary: Adversary,
        write_quorums: Iterable[Iterable[Hashable]],
        read_quorums: Iterable[Iterable[Hashable]],
        read_qc1: Iterable[Iterable[Hashable]] = (),
        read_qc2: Optional[Iterable[Iterable[Hashable]]] = None,
        validate: bool = True,
    ):
        self._adversary = adversary
        self._writes = props.normalize_family(write_quorums)
        self._reads = props.normalize_family(read_quorums)
        self._qc1 = props.normalize_family(read_qc1)
        self._qc2 = (
            self._qc1
            if read_qc2 is None
            else props.normalize_family(read_qc2)
        )
        self._check_shape()
        if validate:
            problem = self.first_violation()
            if problem is not None:
                raise QuorumSystemError(problem)

    def _check_shape(self) -> None:
        ground = self._adversary.ground_set
        if not self._writes or not self._reads:
            raise QuorumSystemError(
                "both write and read families must be non-empty"
            )
        for family in (self._writes, self._reads):
            for quorum in family:
                if not quorum or not quorum <= ground:
                    raise QuorumSystemError(
                        f"quorum {set(quorum)} is invalid for S"
                    )
        if not set(self._qc1) <= set(self._qc2) <= set(self._reads):
            raise QuorumSystemError(
                "need read_qc1 ⊆ read_qc2 ⊆ read_quorums"
            )

    # -- accessors -------------------------------------------------------------

    @property
    def adversary(self) -> Adversary:
        return self._adversary

    @property
    def write_quorums(self) -> Tuple[Subset, ...]:
        return self._writes

    @property
    def read_quorums(self) -> Tuple[Subset, ...]:
        return self._reads

    @property
    def read_qc1(self) -> Tuple[Subset, ...]:
        return self._qc1

    @property
    def read_qc2(self) -> Tuple[Subset, ...]:
        return self._qc2

    # -- validation ---------------------------------------------------------------

    def first_violation(self) -> Optional[str]:
        """The first violated asymmetric property, as a message."""
        for read in self._reads:
            for write in self._writes:
                if self._adversary.contains(read & write):
                    return (
                        f"AP1 violated: R={set(read)} ∩ W={set(write)} "
                        "is corruptible"
                    )
        # AP2 and AP3 are Properties 2 and 3 with the write family in
        # the place of RQS.
        w2 = props.check_property2(self._adversary, self._qc1, self._writes)
        if w2 is not None:
            return (
                f"AP2 violated: R1={set(w2.q1)} ∩ R1'={set(w2.q1_prime)} "
                f"∩ W={set(w2.q)} is not large"
            )
        w3 = props.check_property3(
            self._adversary, self._qc1, self._qc2, self._writes
        )
        if w3 is not None:
            return (
                f"AP3 violated: R2={set(w3.q2)}, W={set(w3.q)}, "
                f"B={set(w3.b1_prime)}"
            )
        return None

    def is_valid(self) -> bool:
        return self.first_violation() is None

    def as_symmetric(self) -> RefinedQuorumSystem:
        """Collapse to a classical RQS (union family) — the degenerate
        case where read and write quorums coincide."""
        union = tuple(set(self._writes) | set(self._reads))
        return RefinedQuorumSystem(
            self._adversary,
            union,
            qc1=self._qc1,
            qc2=self._qc2,
            validate=False,
        )


def threshold_asymmetric(
    n: int,
    k: int,
    write_size: int,
    read_size: int,
    fast_read_size: Optional[int] = None,
) -> AsymmetricRQS:
    """A threshold asymmetric system: all ``write_size``-subsets write,
    all ``read_size``-subsets read; subsets of ``fast_read_size`` (when
    given) are class-1 read quorums.

    AP1 requires ``write_size + read_size > n + k``.
    """
    if not (0 < write_size <= n and 0 < read_size <= n):
        raise QuorumSystemError("quorum sizes must be within 1..n")
    servers = tuple(range(1, n + 1))
    adversary = ThresholdAdversary(servers, k)
    writes = [
        frozenset(c) for c in combinations(servers, write_size)
    ]
    reads = [frozenset(c) for c in combinations(servers, read_size)]
    qc1: Tuple[Subset, ...] = ()
    if fast_read_size is not None:
        if fast_read_size < read_size:
            raise QuorumSystemError(
                "class-1 read quorums cannot be smaller than read quorums"
            )
        qc1 = tuple(
            frozenset(c) for c in combinations(servers, fast_read_size)
        )
        reads = sorted(set(reads) | set(qc1))
    return AsymmetricRQS(
        adversary, writes, reads, read_qc1=qc1, read_qc2=qc1 or None
    )


def write_read_tradeoff(
    n: int, k: int, probabilities: Iterable[float]
) -> Tuple[Tuple[int, int, float, float], ...]:
    """For each feasible (write_size, read_size) pair on the AP1
    boundary, the write-quorum load and read availability at ``p``.

    Returns rows ``(write_size, read_size, write_load, read_avail)``
    for the first probability given (kept simple for the ablation).
    """
    import math

    probabilities = list(probabilities)
    p = probabilities[0]
    rows = []
    for write_size in range(1, n + 1):
        read_size = n + k - write_size + 1
        if not 1 <= read_size <= n:
            continue
        write_load = write_size / n
        read_avail = sum(
            math.comb(n, alive) * (1 - p) ** alive * p ** (n - alive)
            for alive in range(read_size, n + 1)
        )
        rows.append((write_size, read_size, write_load, read_avail))
    return tuple(rows)
