"""Tests for the server history matrix (Figure 6 storage semantics)."""

from hypothesis import given, settings, strategies as st

from repro.storage.history import (
    BOTTOM,
    Entry,
    History,
    INITIAL_ENTRY,
    INITIAL_PAIR,
    Pair,
)


class TestStore:
    def test_untouched_cells_report_initial(self):
        history = History()
        assert history.snapshot().get(5, 2) == INITIAL_ENTRY
        assert history.snapshot().get(5, 2).pair == Pair(0, BOTTOM)

    def test_round_r_fills_all_lower_slots(self):
        history = History()
        history.store(1, 3, "v", frozenset())
        for slot in (1, 2, 3):
            assert history.snapshot().get(1, slot).pair == Pair(1, "v")

    def test_sets_only_attached_at_exact_round(self):
        history = History()
        q = frozenset({1, 2, 3})
        history.store(1, 2, "v", frozenset({q}))
        assert history.snapshot().get(1, 1).sets == frozenset()
        assert history.snapshot().get(1, 2).sets == frozenset({q})

    def test_sets_accumulate(self):
        history = History()
        q1, q2 = frozenset({1, 2}), frozenset({2, 3})
        history.store(1, 1, "v", frozenset({q1}))
        history.store(1, 1, "v", frozenset({q2}))
        assert history.snapshot().get(1, 1).sets == frozenset({q1, q2})

    def test_conflicting_pair_does_not_overwrite(self):
        """Figure 6 line 4: a cell holding a different pair is left
        alone (sticky values, Lemma 8)."""
        history = History()
        history.store(1, 1, "first", frozenset())
        history.store(1, 1, "second", frozenset())
        assert history.snapshot().get(1, 1).pair == Pair(1, "first")

    def test_different_timestamps_are_independent(self):
        history = History()
        history.store(1, 1, "a", frozenset())
        history.store(2, 1, "b", frozenset())
        assert history.snapshot().get(1, 1).pair == Pair(1, "a")
        assert history.snapshot().get(2, 1).pair == Pair(2, "b")


class TestSnapshots:
    def test_snapshot_is_detached(self):
        history = History()
        history.store(1, 1, "v", frozenset())
        view = history.snapshot()
        history.store(2, 1, "w", frozenset())
        assert view.get(2, 1) == INITIAL_ENTRY
        assert history.snapshot().get(2, 1).pair == Pair(2, "w")

    def test_pairs_includes_initial(self):
        history = History()
        history.store(1, 2, "v", frozenset())
        pairs = set(history.snapshot().pairs())
        assert INITIAL_PAIR in pairs and Pair(1, "v") in pairs

    def test_pairs_excludes_slot3_only(self):
        """Only slots 1 and 2 define readable pairs (the read(c, i)
        predicate); slot 3 alone never surfaces a candidate... but a
        round-3 store fills slots 1-2 anyway, so craft slot 3 directly."""
        history = History()
        history._cells[(4, 3)] = Entry(Pair(4, "x"), frozenset())
        assert Pair(4, "x") not in set(history.snapshot().pairs())

    def test_max_timestamp(self):
        history = History()
        assert history.snapshot().max_timestamp() == 0
        history.store(7, 1, "v", frozenset())
        assert history.snapshot().max_timestamp() == 7

    def test_clear_and_overwrite(self):
        history = History()
        history.store(1, 1, "v", frozenset())
        saved = history.snapshot()
        history.clear()
        assert not history.snapshot().cells
        history.overwrite(saved)
        assert history.snapshot().get(1, 1).pair == Pair(1, "v")


def test_bottom_is_singleton():
    from repro.storage.history import _Bottom

    assert _Bottom() is BOTTOM
    assert repr(BOTTOM) == "⊥"


@given(
    writes=st.lists(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 2)),
        max_size=12,
    )
)
@settings(max_examples=100, deadline=None)
def test_store_is_sticky_and_monotone(writes):
    """Lemmas 8 and 9: pairs never change once set; set collections
    only grow."""
    history = History()
    previous = {}
    for ts, rnd, value_index in writes:
        value = f"v{ts}"  # unique per timestamp, like a benign writer
        quorum = frozenset({value_index})
        history.store(ts, rnd, value, frozenset({quorum}))
        for key in list(previous):
            pair, sets = previous[key]
            entry = history.snapshot().get(*key)
            assert entry.pair == pair            # sticky (Lemma 8)
            assert entry.sets >= sets            # monotone (Lemma 9)
        for slot in (1, 2, 3):
            entry = history.snapshot().get(ts, slot)
            if entry != INITIAL_ENTRY:
                previous[(ts, slot)] = (entry.pair, entry.sets)
