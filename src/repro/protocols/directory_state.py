"""Directory storage for the two directory protocols.

Both DirClassic and DirOpt keep a full bit vector of sharers per block
(Section 4.2).  DirClassic additionally uses *busy* states while a request is
being resolved through a third party and NACKs requests that hit a busy
entry; DirOpt never enters a busy state.

The sharer vector is stored literally as a bit vector: ``sharers_mask`` is a
plain int with bit ``n`` set when node ``n`` holds an S copy.  Per-request
set copies (the old ``Set[int]`` storage rebuilt a fresh set for every GETM)
become single integer ops; :func:`iter_sharers` walks the set bits in
ascending node order when a caller genuinely needs to enumerate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, Optional, Set, Union


class DirectoryState(Enum):
    """Stable and transient directory states."""

    UNCACHED = "I"  # memory owns the block; no cached copies tracked
    SHARED = "S"  # memory owns the block; sharers hold S copies
    MODIFIED = "M"  # a single cache owns the block
    BUSY_SHARED = "BS"  # DirClassic: GETS forwarded, awaiting writeback
    BUSY_MODIFIED = "BM"  # DirClassic: GETM forwarded, awaiting transfer

    @property
    def is_busy(self) -> bool:
        return self in (DirectoryState.BUSY_SHARED, DirectoryState.BUSY_MODIFIED)


def sharer_mask(nodes: Iterable[int]) -> int:
    """Bit vector with one bit set per node id."""
    mask = 0
    for node in nodes:
        mask |= 1 << node
    return mask


def iter_sharers(mask: int) -> Iterator[int]:
    """Node ids of the set bits, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass
class DirectoryEntry:
    """Directory record for one block (full-bit-vector sharers)."""

    state: DirectoryState = DirectoryState.UNCACHED
    owner: Optional[int] = None
    sharers_mask: int = 0
    version: int = 0
    #: memory's copy is stale until an in-flight (sharing) writeback arrives
    awaiting_data: bool = False
    #: requester whose transaction put the entry into a busy state
    busy_for: Optional[int] = None
    #: writeback data from the still-registered owner arrived before its
    #: PUTM was processed (perturbation can reorder the two messages)
    early_data_from: Optional[int] = None

    @property
    def sharers(self) -> Set[int]:
        """The sharer vector as a set of node ids (inspection/tests only)."""
        return set(iter_sharers(self.sharers_mask))

    def reset_to_uncached(self) -> None:
        self.state = DirectoryState.UNCACHED
        self.owner = None
        self.sharers_mask = 0
        self.busy_for = None

    def make_modified(self, owner: int) -> None:
        self.state = DirectoryState.MODIFIED
        self.owner = owner
        self.sharers_mask = 1 << owner
        self.busy_for = None

    def make_shared(self, sharers: Union[int, Iterable[int]]) -> None:
        """Enter SHARED with the given sharer vector (mask or node ids)."""
        self.state = DirectoryState.SHARED
        self.owner = None
        self.sharers_mask = (
            sharers if isinstance(sharers, int) else sharer_mask(sharers)
        )
        self.busy_for = None

    def add_sharer(self, node: int) -> None:
        if self.state is DirectoryState.UNCACHED:
            self.state = DirectoryState.SHARED
        self.sharers_mask |= 1 << node

    def sharers_excluding(self, node: int) -> int:
        """Sharer vector with ``node``'s bit cleared (no set rebuild)."""
        return self.sharers_mask & ~(1 << node)

    def invalidation_targets(self, requester: int) -> Set[int]:
        """Sharers that must be invalidated for ``requester`` to gain M.

        Set-valued convenience for tests and reporting; the protocol hot
        path uses :meth:`sharers_excluding` directly.
        """
        return set(iter_sharers(self.sharers_excluding(requester)))


class DirectoryBank:
    """The directory slice held by one memory controller.

    Entries are created lazily: a block nobody has ever requested is
    implicitly UNCACHED with memory as its owner.
    """

    def __init__(self, home_node: int) -> None:
        self.home_node = home_node
        self._entries: Dict[int, DirectoryEntry] = {}

    def entry(self, block: int) -> DirectoryEntry:
        entry = self._entries.get(block)
        if entry is None:
            entry = DirectoryEntry()
            self._entries[block] = entry
        return entry

    def peek(self, block: int) -> Optional[DirectoryEntry]:
        """Entry if it exists, without creating one (used by tests/stats)."""
        return self._entries.get(block)

    def __len__(self) -> int:
        return len(self._entries)

    def entries(self) -> Iterator[tuple[int, DirectoryEntry]]:
        return iter(self._entries.items())

    def busy_blocks(self) -> Set[int]:
        return {block for block, entry in self._entries.items() if entry.state.is_busy}

    def blocks_owned_by_caches(self) -> Set[int]:
        return {
            block
            for block, entry in self._entries.items()
            if entry.state is DirectoryState.MODIFIED
        }
