"""Unit tests for traffic accounting and timing parameters."""

import pytest

from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessageKind
from repro.network.timing import NetworkTiming, PAPER_TIMING


class TestNetworkTiming:
    def test_paper_one_way_latencies(self):
        assert PAPER_TIMING.one_way_latency(3) == 49     # butterfly
        assert PAPER_TIMING.one_way_latency(2) == 34     # torus mean
        assert PAPER_TIMING.one_way_latency(0) == 4
        assert PAPER_TIMING.one_way_latency(4) == 64     # torus worst case

    def test_ordering_latency_formula(self):
        timing = NetworkTiming()
        assert timing.ordering_latency(3, 0) == 4 + 3 * 15
        assert timing.ordering_latency(4, 2) == 4 + 6 * 15

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            PAPER_TIMING.one_way_latency(-1)
        with pytest.raises(ValueError):
            PAPER_TIMING.ordering_latency(-1, 0)


class TestTrafficAccountant:
    def test_record_message_traversals(self):
        accountant = TrafficAccountant(num_links=10)
        accountant.record(Message(MessageKind.GETS, 0, None, 1), traversals=21)
        accountant.record(Message(MessageKind.DATA, 1, 0, 1), traversals=3)
        assert accountant.bytes_by_category == {"Request": 21 * 8, "Data": 3 * 72}
        assert accountant.total_bytes() == 21 * 8 + 3 * 72
        assert accountant.per_link_bytes() == pytest.approx((21 * 8 + 3 * 72) / 10)

    def test_zero_traversal_messages_add_no_bytes(self):
        accountant = TrafficAccountant(num_links=4)
        accountant.record(Message(MessageKind.DATA, 2, 2, 1), traversals=0)
        assert accountant.total_bytes() == 0
        assert accountant.bytes_by_category == {"Data": 0}

    def test_negative_traversals_rejected(self):
        accountant = TrafficAccountant(num_links=4)
        with pytest.raises(ValueError):
            accountant.record(Message(MessageKind.DATA, 0, 1, 1), -1)

    def test_reset_clears_every_category(self):
        accountant = TrafficAccountant(num_links=2)
        accountant.record(Message(MessageKind.NACK, 0, 1, 1), traversals=3)
        assert accountant.total_bytes() == 24
        accountant.reset()
        assert accountant.bytes_by_category == {}
        assert accountant.per_link_bytes() == 0.0
