"""The dict/object cache array: the oracle for the packed-array property test.

One ``CacheLine`` heap object per resident line in a per-set dict -- the
most direct reading of a set-associative true-LRU array.  The simulator
uses :class:`repro.memory.cache.PackedCacheArray` only; this class exists
so ``tests/memory/test_packed_cache.py`` can check the packed columns
against an independent implementation of the same API.
"""

from typing import Dict, Iterator, Optional

from repro.memory.cache import CacheLine, EvictionResult
from repro.memory.coherence import CacheState


class CacheArray:
    """A set-associative array keyed by block number.

    The array tracks only *stable* states; in-flight blocks live in the
    controller's MSHR file until the transaction completes and the line is
    installed with :meth:`install`.
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
        self._sets: Dict[int, Dict[int, CacheLine]] = {}
        self._access_clock = 0

    def _set_for(self, block: int) -> Dict[int, CacheLine]:
        return self._sets.setdefault(block % self.num_sets, {})

    # ---------------------------------------------------------------- lookup
    def lookup(self, block: int) -> Optional[CacheLine]:
        """Return the line holding ``block`` or ``None`` (does not touch LRU)."""
        line = self._sets.get(block % self.num_sets, {}).get(block)
        if line is not None and line.state is CacheState.INVALID:
            return None
        return line

    def state_of(self, block: int) -> CacheState:
        line = self.lookup(block)
        return line.state if line is not None else CacheState.INVALID

    def version_of(self, block: int) -> int:
        """Version token of a resident block (0 when the block is absent)."""
        line = self.lookup(block)
        return line.version if line is not None else 0

    def touch(self, block: int) -> None:
        """Update LRU recency for a hit."""
        line = self.lookup(block)
        if line is None:
            raise KeyError(f"touch on missing block {block}")
        self._access_clock += 1
        line.lru_stamp = self._access_clock

    # ------------------------------------------------------------ allocation
    def install(
        self, block: int, state: CacheState, *, version: int = 0, dirty: bool = False
    ) -> EvictionResult:
        """Install ``block`` in ``state``, evicting an LRU victim if needed."""
        if state is CacheState.INVALID:
            raise ValueError("cannot install a line in state I")
        cache_set = self._set_for(block)
        eviction = EvictionResult(None, CacheState.INVALID, False)
        if block not in cache_set and len(cache_set) == self.associativity:
            victim = min(cache_set.values(), key=lambda line: line.lru_stamp)
            eviction = EvictionResult(
                victim.block, victim.state, victim.dirty, victim.version
            )
            del cache_set[victim.block]
        self._access_clock += 1
        cache_set[block] = CacheLine(
            block=block,
            state=state,
            lru_stamp=self._access_clock,
            dirty=dirty,
            version=version,
        )
        return eviction

    def set_state(self, block: int, state: CacheState) -> None:
        """Change the stable state of a resident block (or drop it on I)."""
        cache_set = self._set_for(block)
        line = cache_set.get(block)
        if state is CacheState.INVALID:
            if line is not None:
                del cache_set[block]
            return
        if line is None:
            raise KeyError(f"set_state on missing block {block}")
        line.state = state
        if state not in (CacheState.MODIFIED, CacheState.OWNED):
            line.dirty = False

    def write(self, block: int, version: int) -> None:
        """Record a store to a resident block (bumps the version token)."""
        line = self.lookup(block)
        if line is None:
            raise KeyError(f"write to missing block {block}")
        line.dirty = True
        line.version = version

    # ------------------------------------------------------------ inspection
    def resident_blocks(self) -> Iterator[int]:
        for cache_set in self._sets.values():
            for block, line in cache_set.items():
                if line.state is not CacheState.INVALID:
                    yield block

    def __contains__(self, block: int) -> bool:
        return self.lookup(block) is not None
