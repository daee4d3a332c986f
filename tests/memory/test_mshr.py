"""Unit tests for the MSHR file."""

import pytest

from repro.memory.mshr import MSHRFile, MSHRFullError


class TestMSHRFile:
    def test_allocate_and_release(self):
        mshrs = MSHRFile(capacity=4)
        entry = mshrs.allocate(10, "GETS", issue_time=100)
        assert entry.block == 10
        assert 10 in mshrs
        released = mshrs.release(10)
        assert released is entry
        assert 10 not in mshrs

    def test_double_allocation_rejected(self):
        mshrs = MSHRFile()
        mshrs.allocate(10, "GETS", 0)
        with pytest.raises(ValueError):
            mshrs.allocate(10, "GETM", 1)

    def test_capacity_enforced(self):
        mshrs = MSHRFile(capacity=2)
        mshrs.allocate(1, "GETS", 0)
        mshrs.allocate(2, "GETS", 0)
        assert mshrs.full
        with pytest.raises(MSHRFullError):
            mshrs.allocate(3, "GETS", 0)

    def test_release_missing_raises(self):
        with pytest.raises(KeyError):
            MSHRFile().release(1)

    def test_entry_completion_logic(self):
        mshrs = MSHRFile()
        entry = mshrs.allocate(1, "GETM", 0)
        assert not entry.complete
        entry.data_received = True
        assert entry.complete
        entry.acks_expected = 2
        assert not entry.complete
        entry.acks_received = 2
        assert entry.complete

    def test_peak_occupancy_and_totals(self):
        mshrs = MSHRFile(capacity=4)
        mshrs.allocate(1, "GETS", 0)
        mshrs.allocate(2, "GETS", 0)
        mshrs.release(1)
        mshrs.allocate(3, "GETS", 0)
        assert mshrs.peak_occupancy == 2
        assert mshrs.total_allocations == 3
        assert sorted(mshrs.blocks_in_flight()) == [2, 3]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(capacity=0)
