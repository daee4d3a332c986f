"""Unit tests for the endpoint ordering queue."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.ordering_queue import OrderingQueue


class TestOrderingQueue:
    def test_strict_release_rule(self):
        """A transaction with slack s inserted at GT g is released when GT
        reaches g + s + 1 (strictly after its ordering time)."""
        queue = OrderingQueue(endpoint=0)
        queue.insert("a", slack=0, source=1)
        released = queue.on_token()
        assert [entry.payload for entry in released] == ["a"]

    def test_zero_slack_entry_waits_for_the_next_token(self):
        """Inserted with zero slack, an entry matures at the current GT and
        is released only by the next token, never at insertion."""
        queue = OrderingQueue(endpoint=0)
        queue.on_token()
        queue.on_token()
        queue.insert("a", slack=0, source=1)
        assert len(queue) == 1
        assert [entry.payload for entry in queue.on_token()] == ["a"]
        assert len(queue) == 0

    def test_releases_in_maturity_then_source_order(self):
        queue = OrderingQueue(endpoint=0)
        queue.insert("late", slack=1, source=0)
        queue.insert("tie-high-source", slack=0, source=9)
        queue.insert("tie-low-source", slack=0, source=2)
        first_drain = [e.payload for e in queue.on_token()]
        assert first_drain == ["tie-low-source", "tie-high-source"]
        second_drain = [e.payload for e in queue.on_token()]
        assert second_drain == ["late"]

    def test_sequence_breaks_source_ties(self):
        queue = OrderingQueue(endpoint=0)
        queue.insert("second", slack=0, source=3, sequence=2)
        queue.insert("first", slack=0, source=3, sequence=1)
        assert [e.payload for e in queue.on_token()] == ["first", "second"]

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            OrderingQueue(0).insert("x", slack=-1, source=0)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                              st.integers(min_value=0, max_value=15)),
                    min_size=1, max_size=40))
    def test_release_order_is_total_order(self, inserts):
        """Whatever the insertion order, releases follow (maturity, source)."""
        queue = OrderingQueue(endpoint=0)
        for sequence, (slack, source) in enumerate(inserts):
            queue.insert((slack, source, sequence), slack=slack, source=source,
                         sequence=sequence)
        released = []
        guard = 0
        while len(queue) and guard < 100:
            released.extend(entry.payload for entry in queue.on_token())
            guard += 1
        assert len(released) == len(inserts)
        maturities = [slack for slack, _source, _seq in released]
        keys = [(slack, source, seq) for slack, source, seq in released]
        assert keys == sorted(keys)
        assert maturities == sorted(maturities)
