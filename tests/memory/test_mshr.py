"""Unit tests for the MSHR file."""

import pytest

from repro.memory.mshr import MSHRFile, MSHRFullError


class TestMSHRFile:
    def test_allocate_and_release(self):
        mshrs = MSHRFile(capacity=4)
        entry = mshrs.allocate(10, "GETS", issue_time=100)
        assert entry.block == 10
        assert 10 in mshrs
        mshrs.allocate(11, "GETM", issue_time=100)
        assert sorted(mshrs.blocks_in_flight()) == [10, 11]
        released = mshrs.release(10)
        assert released is entry
        assert 10 not in mshrs
        assert mshrs.blocks_in_flight() == [11]

    def test_double_allocation_rejected(self):
        mshrs = MSHRFile()
        mshrs.allocate(10, "GETS", 0)
        with pytest.raises(ValueError):
            mshrs.allocate(10, "GETM", 1)

    def test_capacity_enforced(self):
        mshrs = MSHRFile(capacity=2)
        mshrs.allocate(1, "GETS", 0)
        mshrs.allocate(2, "GETS", 0)
        with pytest.raises(MSHRFullError):
            mshrs.allocate(3, "GETS", 0)
        assert len(mshrs) == 2
        mshrs.release(1)
        mshrs.allocate(3, "GETS", 0)
        assert sorted(mshrs.blocks_in_flight()) == [2, 3]

    def test_release_missing_raises(self):
        with pytest.raises(KeyError):
            MSHRFile().release(1)

    def test_entry_completion_logic(self):
        # A fresh entry waits for its data; the data response tells the
        # directory caches how many acks to collect (None until then).
        entry = MSHRFile().allocate(1, "GETM", 0)
        assert not entry.data_received
        assert entry.acks_required is None
        assert entry.acks_received == 0

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            MSHRFile(capacity=0)
