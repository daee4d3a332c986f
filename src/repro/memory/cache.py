"""Set-associative cache arrays with true-LRU replacement.

Models the unified level-two cache of the target system: 4 MB, 4-way,
64-byte blocks (Section 4.2).  The array stores coherence state and a data
version token per line; actual data values are not simulated (the simulator
is a timing/protocol model), but version tokens let the consistency checker
verify that reads observe the latest write in the global order.

:class:`PackedCacheArray` stores tags, state codes, LRU generation stamps,
dirty bits and version tokens as parallel ``array('q')``/``array('b')``
columns with no per-line objects.  The test suite checks it against an
independent dict/object oracle with a differential property test.
"""
# repro-lint: hot

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

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


class PackedCacheArray:
    """Allocation-free cache array over parallel integer columns.

    Sets are materialised lazily: the first access to a set appends
    ``associativity`` ways to every column and records the set's base slot in
    ``_set_base``.  A way is empty when its state code is 0 (INVALID).  LRU
    recency is a monotonically increasing generation counter
    (``_access_clock``): stamps are unique, so the minimum stamp identifies
    the victim regardless of storage layout.

    The protocol-facing API (``state_of`` / ``version_of`` / ``touch`` /
    ``install`` / ``set_state`` / ``evict`` / ``write`` / ``choose_victim``)
    never creates per-line objects; :meth:`lookup` materialises a
    :class:`CacheLine` *copy* for tests and inspection only -- mutating it
    does not write back to the array.
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
        #: block -> live state code; a redundant index over the packed
        #: columns so ``state_of`` -- the once-per-snooped-transaction-
        #: per-node query, the hottest in the simulator -- is one dict get
        #: instead of a set probe.  Maintained at every state mutation
        #: (install / set_state / evict); the columns stay the source of
        #: truth for lookup/victim logic.
        self._state_index: Dict[int, int] = {}
        self._access_clock = 0
        # Extension templates: array-from-array extends are a straight
        # memcpy, list literals are not.
        self._fresh_tags = array("q", [-1] * associativity)
        self._fresh_q = array("q", [0] * associativity)
        self._fresh_b = array("b", [0] * associativity)

    # ------------------------------------------------------------- indexing
    def set_index(self, block: int) -> int:
        return block % self.num_sets

    def _base_for(self, block: int) -> int:
        """Base slot of the block's set, materialising the set on demand."""
        index = block % self.num_sets
        base = self._set_base.get(index)
        if base is None:
            base = len(self._tags)
            self._set_base[index] = base
            self._tags.extend(self._fresh_tags)
            self._states.extend(self._fresh_b)
            self._lru.extend(self._fresh_q)
            self._dirty.extend(self._fresh_b)
            self._versions.extend(self._fresh_q)
        return base

    def _slot_of(self, block: int) -> int:
        """Slot holding ``block`` or -1 (never allocates)."""
        slot = self._set_base.get(block % self.num_sets)
        if slot is None:
            return -1
        tags = self._tags
        states = self._states
        end = slot + self.associativity
        while slot < end:
            if tags[slot] == block and states[slot]:
                return slot
            slot += 1
        return -1

    # ---------------------------------------------------------------- lookup
    def lookup(self, block: int) -> Optional[CacheLine]:
        """A :class:`CacheLine` *copy* of the resident line (tests only)."""
        slot = self._slot_of(block)
        if slot < 0:
            return None
        return CacheLine(
            block=block,
            state=STATE_FROM_CODE[self._states[slot]],
            lru_stamp=self._lru[slot],
            dirty=bool(self._dirty[slot]),
            version=self._versions[slot],
        )

    def state_of(self, block: int) -> CacheState:
        # One dict get against the state index: this probe runs once per
        # snooped transaction per node, the single hottest query in the
        # simulator (code 0 is INVALID, the default for absent blocks).
        return STATE_FROM_CODE[self._state_index.get(block, 0)]

    def version_of(self, block: int) -> int:
        slot = self._slot_of(block)
        return 0 if slot < 0 else self._versions[slot]

    def touch(self, block: int) -> None:
        slot = self._slot_of(block)
        if slot < 0:
            raise KeyError(f"touch on missing block {block}")
        self._access_clock += 1
        self._lru[slot] = self._access_clock

    # ------------------------------------------------------------ allocation
    def choose_victim(self, block: int) -> EvictionResult:
        base = self._base_for(block)
        tags = self._tags
        states = self._states
        lru = self._lru
        victim_slot = -1
        victim_stamp = 0
        live = 0
        for slot in range(base, base + self.associativity):
            if not states[slot]:
                continue
            if tags[slot] == block:
                return EvictionResult(None, CacheState.INVALID, False)
            live += 1
            if victim_slot < 0 or lru[slot] < victim_stamp:
                victim_slot = slot
                victim_stamp = lru[slot]
        if live < self.associativity:
            return EvictionResult(None, CacheState.INVALID, False)
        return EvictionResult(
            tags[victim_slot],
            STATE_FROM_CODE[states[victim_slot]],
            bool(self._dirty[victim_slot]),
            self._versions[victim_slot],
        )

    def install(
        self, block: int, state: CacheState, *, version: int = 0, dirty: bool = False
    ) -> EvictionResult:
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in state I")
        # Single pass finds the existing line, a free way or the LRU victim
        # (choose_victim's semantics fused with the slot search).  Victim
        # choice depends only on LRU stamps, never on slot positions.
        base = self._set_base.get(block % self.num_sets)
        if base is None:
            base = self._base_for(block)
        tags = self._tags
        states = self._states
        lru = self._lru
        end = base + self.associativity
        target = -1
        free = -1
        victim = -1
        victim_stamp = 0
        slot = base
        while slot < end:
            code = states[slot]
            if not code:
                if free < 0:
                    free = slot
            elif tags[slot] == block:
                target = slot
                break
            elif victim < 0 or lru[slot] < victim_stamp:
                victim = slot
                victim_stamp = lru[slot]
            slot += 1
        if target >= 0 or free >= 0:
            eviction = _NO_VICTIM
            if target < 0:
                target = free
        else:
            eviction = EvictionResult(
                tags[victim],
                STATE_FROM_CODE[states[victim]],
                bool(self._dirty[victim]),
                self._versions[victim],
            )
            target = victim
            del self._state_index[tags[victim]]
        self._access_clock += 1
        tags[target] = block
        states[target] = state.code
        lru[target] = self._access_clock
        self._dirty[target] = 1 if dirty else 0
        self._versions[target] = version
        self._state_index[block] = state.code
        return eviction

    def set_state(self, block: int, state: CacheState) -> None:
        slot = self._slot_of(block)
        if state is CacheState.INVALID:
            if slot >= 0:
                self._states[slot] = 0
                del self._state_index[block]
            return
        if slot < 0:
            raise KeyError(f"set_state on missing block {block}")
        self._states[slot] = state.code
        self._state_index[block] = state.code
        if state is not CacheState.MODIFIED and state is not CacheState.OWNED:
            self._dirty[slot] = 0

    def evict(self, block: int) -> Optional[CacheLine]:
        slot = self._slot_of(block)
        if slot < 0:
            return None
        line = CacheLine(
            block=block,
            state=STATE_FROM_CODE[self._states[slot]],
            lru_stamp=self._lru[slot],
            dirty=bool(self._dirty[slot]),
            version=self._versions[slot],
        )
        self._states[slot] = 0
        del self._state_index[block]
        return line

    def write(self, block: int, version: int) -> None:
        slot = self._slot_of(block)
        if slot < 0:
            raise KeyError(f"write to missing block {block}")
        self._dirty[slot] = 1
        self._versions[slot] = version

    # ------------------------------------------------------------ inspection
    def resident_blocks(self) -> Iterator[int]:
        tags = self._tags
        states = self._states
        for slot in range(len(tags)):
            if states[slot]:
                yield tags[slot]

    def occupancy(self) -> int:
        return sum(1 for state in self._states if state)

    def set_occupancy(self, set_index: int) -> int:
        base = self._set_base.get(set_index)
        if base is None:
            return 0
        return sum(
            1 for slot in range(base, base + self.associativity) if self._states[slot]
        )

    def __contains__(self, block: int) -> bool:
        return self._slot_of(block) >= 0
