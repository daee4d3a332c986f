"""Controller timing parameters (the ``Dcache``/``Dmem`` latencies of Table 2)."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ProtocolTiming:
    """Controller occupancy / access latencies (Table 2).

    ``cache_access_ns`` is the time for a cache to provide data to the
    network (``Dcache``); ``memory_access_ns`` is the combined directory and
    memory access time (``Dmem``); ``l2_hit_ns`` is the latency of a level-two
    hit as seen by the blocking processor (the paper folds this into its
    perfect-L1 processor abstraction; it is applied identically to every
    protocol); ``nack_retry_ns`` is the delay a DirClassic requester waits
    before re-issuing a NACKed request.
    """

    cache_access_ns: int = 25
    memory_access_ns: int = 80
    l2_hit_ns: int = 10
    nack_retry_ns: int = 20

    def __post_init__(self) -> None:
        for name in (
            "cache_access_ns",
            "memory_access_ns",
            "l2_hit_ns",
            "nack_retry_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
