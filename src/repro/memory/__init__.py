"""Memory-hierarchy substrate: blocks, coherence states, cache arrays, MSHRs."""

from repro.memory.block import BlockAddress, AddressSpace
from repro.memory.coherence import (
    CacheState,
    AccessType,
    is_stable,
    can_read,
    can_write,
    owns_data,
)
from repro.memory.cache import (
    CacheLine,
    EvictionResult,
    PackedCacheArray,
)
from repro.memory.mshr import MSHRFile, MSHREntry, MSHRFullError

__all__ = [
    "BlockAddress",
    "AddressSpace",
    "CacheState",
    "AccessType",
    "is_stable",
    "can_read",
    "can_write",
    "owns_data",
    "PackedCacheArray",
    "CacheLine",
    "EvictionResult",
    "MSHRFile",
    "MSHREntry",
    "MSHRFullError",
]
