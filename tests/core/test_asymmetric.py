"""Tests for the asymmetric read/write RQS extension."""

import pytest

from repro.core.adversary import ThresholdAdversary
from repro.core.asymmetric import (
    AsymmetricRQS,
    threshold_asymmetric,
    write_read_tradeoff,
)
from repro.errors import QuorumSystemError


class TestConstruction:
    def test_threshold_asymmetric_valid_on_boundary(self):
        # AP1 needs write + read > n + k: 4 + 4 > 6 + 1.
        system = threshold_asymmetric(6, 1, write_size=4, read_size=4)
        assert system.is_valid()

    def test_threshold_asymmetric_invalid_below_boundary(self):
        with pytest.raises(QuorumSystemError):
            threshold_asymmetric(6, 1, write_size=3, read_size=4)

    def test_small_writes_need_big_reads(self):
        # write_size=2 forces read_size >= n + k - 1 = 6.
        system = threshold_asymmetric(6, 1, write_size=2, read_size=6)
        assert system.is_valid()
        assert min(len(w) for w in system.write_quorums) == 2

    def test_fast_read_class(self):
        system = threshold_asymmetric(
            6, 0, write_size=4, read_size=3, fast_read_size=5
        )
        assert system.read_qc1
        assert system.is_valid()

    def test_fast_reads_cannot_shrink_below_reads(self):
        with pytest.raises(QuorumSystemError):
            threshold_asymmetric(
                6, 0, write_size=4, read_size=4, fast_read_size=3
            )

    def test_rejects_empty_families(self):
        adv = ThresholdAdversary(range(1, 5), 0)
        with pytest.raises(QuorumSystemError):
            AsymmetricRQS(adv, [], [{1, 2, 3}])

    def test_rejects_misnested_classes(self):
        adv = ThresholdAdversary(range(1, 5), 0)
        with pytest.raises(QuorumSystemError):
            AsymmetricRQS(
                adv,
                [{1, 2, 3}],
                [{2, 3, 4}],
                read_qc1=[{1, 2, 3, 4}],   # not a read quorum
            )

    def test_within_family_intersection_not_required(self):
        """The asymmetric saving: two write quorums may be disjoint."""
        adv = ThresholdAdversary(range(1, 7), 0)
        system = AsymmetricRQS(
            adv,
            write_quorums=[{1, 2, 3}, {4, 5, 6}],     # disjoint!
            read_quorums=[{1, 2, 3, 4, 5, 6}],
        )
        assert system.is_valid()

    def test_as_symmetric_collapse(self):
        system = threshold_asymmetric(6, 1, write_size=4, read_size=4)
        collapsed = system.as_symmetric()
        assert collapsed.is_valid()


class TestTradeoff:
    def test_rows_on_ap1_boundary(self):
        rows = write_read_tradeoff(6, 1, [0.1])
        for write_size, read_size, _, _ in rows:
            assert write_size + read_size == 6 + 1 + 1

    def test_smaller_writes_less_load_less_read_availability(self):
        rows = write_read_tradeoff(8, 1, [0.1])
        loads = [load for _, _, load, _ in rows]
        avails = [avail for _, _, _, avail in rows]
        assert loads == sorted(loads)
        assert avails == sorted(avails)
        # The balanced row of that boundary is a valid system.
        assert threshold_asymmetric(8, 1, write_size=5, read_size=5).is_valid()
