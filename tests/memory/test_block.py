"""Unit tests for the address space and its home-node interleaving."""

import pytest
from hypothesis import given, strategies as st

from repro.memory.block import AddressSpace


class TestAddressSpace:
    def test_paper_configuration(self):
        space = AddressSpace()
        assert space.num_blocks == (1 << 30) // 64
        assert space.num_nodes == 16

    def test_home_of_interleaving(self):
        space = AddressSpace(total_bytes=1 << 20, block_size=64, num_nodes=16)
        assert [space.home_of(block) for block in range(16)] == list(range(16))
        assert space.home_of(16) == 0

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AddressSpace(block_size=60)
        with pytest.raises(ValueError):
            AddressSpace(total_bytes=100, block_size=64)
        with pytest.raises(ValueError):
            AddressSpace(num_nodes=0)

    @given(st.integers(min_value=0, max_value=(1 << 20) // 64 - 1))
    def test_home_of_is_in_range(self, block):
        space = AddressSpace(total_bytes=1 << 20, block_size=64, num_nodes=16)
        home = space.home_of(block)
        assert 0 <= home < 16
        assert home == block % 16
