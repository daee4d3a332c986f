"""Block and address arithmetic.

The target system (Section 4.2) has 1 GiB of globally shared memory spread
across 16 memory controllers (one per node) with 64-byte coherence blocks.
Memory is interleaved across controllers at block granularity, which is how
the home node of a block is determined for the directory protocols and how
the per-block "memory owner bit" of TS-Snoop is stored.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BlockAddress:
    """A block-aligned physical address.

    The class is a thin value object: most of the simulator works with plain
    integer block numbers for speed, and uses :class:`AddressSpace` to map
    between byte addresses, block numbers and home nodes.
    """

    block_number: int
    block_size: int = 64

    def __post_init__(self) -> None:
        if self.block_number < 0:
            raise ValueError("block_number must be non-negative")
        if self.block_size <= 0 or self.block_size & (self.block_size - 1):
            raise ValueError("block_size must be a positive power of two")

    @property
    def byte_address(self) -> int:
        return self.block_number * self.block_size

    @classmethod
    def from_byte_address(cls, address: int, block_size: int = 64) -> "BlockAddress":
        if address < 0:
            raise ValueError("address must be non-negative")
        return cls(address // block_size, block_size)

    def __int__(self) -> int:
        return self.block_number


class AddressSpace:
    """The globally shared physical address space.

    Responsibilities:

    * byte address <-> block number conversion,
    * home-node interleaving (block number modulo node count),
    * bounds checking against the configured memory size.
    """

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

    # ----------------------------------------------------------- conversions
    def block_of(self, byte_address: int) -> int:
        """Block number containing ``byte_address``."""
        if not 0 <= byte_address < self.total_bytes:
            raise ValueError(
                f"address {byte_address:#x} outside 0..{self.total_bytes:#x}"
            )
        return byte_address // self.block_size

    def block_base(self, block_number: int) -> int:
        """First byte address of a block."""
        self._check_block(block_number)
        return block_number * self.block_size

    def offset_in_block(self, byte_address: int) -> int:
        return byte_address % self.block_size

    # ---------------------------------------------------------------- homing
    def home_node(self, block_number: int) -> int:
        """Node whose memory controller owns this block (interleaved)."""
        self._check_block(block_number)
        return block_number % self.num_nodes

    def home_of(self, block_number: int) -> int:
        """Unchecked :meth:`home_node` for per-message hot paths.

        The single definition of the interleaving: controllers pre-bind this
        so changing the homing scheme changes every call site at once.
        """
        return block_number % self.num_nodes

    def blocks_homed_at(self, node: int, limit: int) -> list[int]:
        """The first ``limit`` block numbers homed at ``node`` (for tests)."""
        if not 0 <= node < self.num_nodes:
            raise ValueError(f"node {node} out of range")
        return [node + index * self.num_nodes for index in range(limit)]

    # --------------------------------------------------------------- helpers
    def _check_block(self, block_number: int) -> None:
        if not 0 <= block_number < self.num_blocks:
            raise ValueError(f"block {block_number} outside 0..{self.num_blocks - 1}")

    def contiguous_region(self, start_block: int, num_blocks: int) -> range:
        """A range of block numbers; validates that it fits in memory."""
        self._check_block(start_block)
        if num_blocks <= 0:
            raise ValueError("num_blocks must be positive")
        self._check_block(start_block + num_blocks - 1)
        return range(start_block, start_block + num_blocks)
