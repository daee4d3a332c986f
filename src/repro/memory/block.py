"""The shared physical address space and its home-node interleaving.

The target system (Section 4.2) has 1 GiB of globally shared memory spread
across 16 memory controllers (one per node) with 64-byte coherence blocks.
The simulator works with plain integer block numbers throughout.  Memory is
interleaved across controllers at block granularity, which is how the home
node of a block is determined for the directory protocols and how the
per-block "memory owner bit" of TS-Snoop is stored.
"""

from __future__ import annotations


class AddressSpace:
    """The globally shared physical address space: its geometry, validated
    at construction, and the block-to-home-node interleaving."""

    def __init__(
        self,
        total_bytes: int = 1 << 30,
        block_size: int = 64,
        num_nodes: int = 16,
    ) -> None:
        if block_size <= 0 or block_size & (block_size - 1):
            raise ValueError("block_size must be a positive power of two")
        if total_bytes % block_size:
            raise ValueError("total_bytes must be a multiple of block_size")
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.total_bytes = total_bytes
        self.block_size = block_size
        self.num_nodes = num_nodes
        self.num_blocks = total_bytes // block_size

    def home_of(self, block_number: int) -> int:
        """Node whose memory controller owns this block (unchecked).

        The single definition of the interleaving: controllers pre-bind this
        so changing the homing scheme changes every call site at once.
        """
        return block_number % self.num_nodes
