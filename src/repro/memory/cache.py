"""Set-associative cache arrays with true-LRU replacement.

Models the unified level-two cache of the target system: 4 MB, 4-way,
64-byte blocks (Section 4.2).  The array stores coherence state and a data
version token per line; actual data values are not simulated (the simulator
is a timing/protocol model), but version tokens let the consistency checker
verify that reads observe the latest write in the global order.

:class:`PackedCacheArray` stores tags, state codes, LRU generation stamps,
dirty bits and version tokens as parallel ``array('q')``/``array('b')``
columns with no per-line objects, plus one dict from each resident block to
its slot.  The test suite checks it against an independent dict/object
oracle with a differential property test.
"""
# repro-lint: hot

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional

from repro.memory.coherence import CacheState, STATE_FROM_CODE


@dataclass
class CacheLine:
    """One cache line: tag (block number), state, LRU stamp, version token."""

    block: int
    state: CacheState = CacheState.INVALID
    lru_stamp: int = 0
    dirty: bool = False
    version: int = 0


@dataclass
class EvictionResult:
    """Outcome of allocating a line: which victim (if any) must be evicted."""

    victim_block: Optional[int]
    victim_state: CacheState
    victim_dirty: bool
    victim_version: int = 0

    @property
    def needs_writeback(self) -> bool:
        return self.victim_block is not None and self.victim_state in (
            CacheState.MODIFIED,
            CacheState.OWNED,
        )


#: Shared "nothing to evict" result.  Callers only read EvictionResult, so
#: the packed array hands every victimless install the same instance.
_NO_VICTIM = EvictionResult(None, CacheState.INVALID, False)

#: One shared int object per slot number.  Slot numbers repeat across a
#: system's arrays, so ``_slots`` values taken from here cost no int object
#: per resident line.
_SLOT_NUMBERS: List[int] = []


class PackedCacheArray:
    """Allocation-free cache array over parallel integer columns.

    Sets are materialised lazily: the first install into a set appends
    ``associativity`` ways to every column and records the set's base slot in
    ``_set_base``.  ``_slots`` maps each resident block to its slot, so every
    per-block query is one dict get; the ``_states`` column is the only
    record of a line's state, and a way is empty when its code is 0
    (INVALID).  LRU recency is a monotonically increasing generation counter
    (``_access_clock``): stamps are unique, so the minimum stamp identifies
    the victim regardless of storage layout.

    The protocol-facing API (``state_of`` / ``version_of`` / ``touch`` /
    ``install`` / ``set_state`` / ``write``) never creates per-line objects;
    :meth:`lookup` materialises a :class:`CacheLine` *copy* for tests and
    inspection only -- mutating it does not write back to the array.
    """

    def __init__(
        self,
        size_bytes: int = 4 * 1024 * 1024,
        associativity: int = 4,
        block_size: int = 64,
        name: str = "L2",
    ) -> None:
        if size_bytes % (associativity * block_size):
            raise ValueError("cache size must divide evenly into sets")
        self.name = name
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (associativity * block_size)
        # Parallel columns, ``associativity`` consecutive slots per set.
        self._tags = array("q")
        self._states = array("b")
        self._lru = array("q")
        self._dirty = array("b")
        self._versions = array("q")
        self._set_base: Dict[int, int] = {}
        #: resident block -> slot; a block is absent once its line is INVALID
        self._slots: Dict[int, int] = {}
        self._access_clock = 0
        # Extension templates: array-from-array extends are a straight
        # memcpy, list literals are not.
        self._fresh_tags = array("q", [-1] * associativity)
        self._fresh_q = array("q", [0] * associativity)
        self._fresh_b = array("b", [0] * associativity)

    def _base_for(self, block: int) -> int:
        """Base slot of the block's set, materialising the set on demand."""
        index = block % self.num_sets
        base = self._set_base.get(index)
        if base is None:
            start = len(self._tags)
            self._tags.extend(self._fresh_tags)
            self._states.extend(self._fresh_b)
            self._lru.extend(self._fresh_q)
            self._dirty.extend(self._fresh_b)
            self._versions.extend(self._fresh_q)
            if len(_SLOT_NUMBERS) < len(self._tags):
                _SLOT_NUMBERS.extend(range(len(_SLOT_NUMBERS), len(self._tags)))
            # The shared slot-number int, not a fresh one per set.
            base = self._set_base[index] = _SLOT_NUMBERS[start]
        return base

    # ---------------------------------------------------------------- lookup
    def lookup(self, block: int) -> Optional[CacheLine]:
        """A :class:`CacheLine` *copy* of the resident line (tests only)."""
        slot = self._slots.get(block)
        if slot is None:
            return None
        return CacheLine(
            block=block,
            state=STATE_FROM_CODE[self._states[slot]],
            lru_stamp=self._lru[slot],
            dirty=bool(self._dirty[slot]),
            version=self._versions[slot],
        )

    def state_of(self, block: int) -> CacheState:
        # Runs once per snooped transaction per node, the hottest query in
        # the simulator.
        slot = self._slots.get(block)
        if slot is None:
            return CacheState.INVALID
        return STATE_FROM_CODE[self._states[slot]]

    def version_of(self, block: int) -> int:
        slot = self._slots.get(block)
        return 0 if slot is None else self._versions[slot]

    def touch(self, block: int) -> None:
        slot = self._slots.get(block)
        if slot is None:
            raise KeyError(f"touch on missing block {block}")
        self._access_clock += 1
        self._lru[slot] = self._access_clock

    # ------------------------------------------------------------ allocation
    def install(
        self, block: int, state: CacheState, *, version: int = 0, dirty: bool = False
    ) -> EvictionResult:
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in state I")
        slots = self._slots
        target = slots.get(block)
        eviction = _NO_VICTIM
        if target is None:
            # The first free way, else the LRU victim.  Victim choice
            # depends only on LRU stamps, never on slot positions.
            base = self._base_for(block)
            states = self._states
            lru = self._lru
            victim = base
            for slot in range(base, base + self.associativity):
                if not states[slot]:
                    target = slot
                    break
                if lru[slot] < lru[victim]:
                    victim = slot
            else:
                victim_block = self._tags[victim]
                eviction = EvictionResult(
                    victim_block,
                    STATE_FROM_CODE[states[victim]],
                    bool(self._dirty[victim]),
                    self._versions[victim],
                )
                del slots[victim_block]
                target = victim
            slots[block] = _SLOT_NUMBERS[target]
            self._tags[target] = block
        self._access_clock += 1
        self._states[target] = state.code
        self._lru[target] = self._access_clock
        self._dirty[target] = 1 if dirty else 0
        self._versions[target] = version
        return eviction

    def set_state(self, block: int, state: CacheState) -> None:
        if state is CacheState.INVALID:
            slot = self._slots.pop(block, None)
            if slot is not None:
                self._states[slot] = 0
            return
        slot = self._slots.get(block)
        if slot is None:
            raise KeyError(f"set_state on missing block {block}")
        self._states[slot] = state.code
        if state is not CacheState.MODIFIED and state is not CacheState.OWNED:
            self._dirty[slot] = 0

    def write(self, block: int, version: int) -> None:
        slot = self._slots.get(block)
        if slot is None:
            raise KeyError(f"write to missing block {block}")
        self._dirty[slot] = 1
        self._versions[slot] = version

    # ------------------------------------------------------------ inspection
    def resident_blocks(self) -> Iterator[int]:
        """Resident blocks, in insertion order.

        ``_slots`` holds exactly the resident blocks; do not change the cache
        while iterating.
        """
        return iter(self._slots)

    def __contains__(self, block: int) -> bool:
        return block in self._slots
