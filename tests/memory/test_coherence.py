"""Unit tests for the cache-state and access-type enumerations."""

from repro.memory.coherence import AccessType


class TestAccessType:
    def test_write_permission(self):
        assert AccessType.STORE.needs_write_permission
        assert AccessType.ATOMIC.needs_write_permission
        assert not AccessType.LOAD.needs_write_permission
