"""Miss Status Holding Registers (transaction buffers).

Cache and memory controllers track in-flight coherence transactions here.
The paper assumes up to 8 outstanding transactions per processor when sizing
endpoint buffering (Section 2.2, "Buffering"); our processor model is
blocking (at most one outstanding demand miss), but writebacks and protocol
races still require multiple simultaneous entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional


class MSHRFullError(RuntimeError):
    """Raised when a controller tries to exceed its outstanding-miss limit."""


@dataclass(slots=True)
class MSHREntry:
    """State of one in-flight transaction for a single block.

    The protocol-specific bookkeeping that used to live in a per-entry
    ``metadata`` dict is typed slots now: an entry is touched several times
    per miss on the hottest protocol paths, and slot access is both faster
    and self-documenting.  ``deferred_forwards`` / ``owed`` stay ``None``
    until first use so the common raceless miss allocates no lists.
    """

    block: int
    kind: str  # e.g. "GETS", "GETM", "PUTM"
    issue_time: int
    acks_received: int = 0
    data_received: bool = False
    ordered: bool = False  # TS-Snoop: own transaction seen in order
    retries: int = 0
    #: completion callback handed to the controller by the processor
    done: Optional[Any] = None
    #: the AccessType that missed
    access_type: Any = None
    #: the request MessageKind in flight (directory retries re-send it)
    req_kind: Any = None
    #: version token carried by the data response
    data_version: int = 0
    #: the data came from another cache (3-hop / dirty miss)
    data_from_cache: bool = False
    #: MESI: the data response granted clean exclusivity (install in E)
    data_exclusive: bool = False
    #: MOESI: own GETM ordered while we held O; permission-only upgrade
    upgrade: bool = False
    #: invalidation acks the directory told us to expect; None = no data yet
    acks_required: Optional[int] = None
    #: forwards deferred while our own fill is in flight (directory caches)
    deferred_forwards: Optional[List[Any]] = None
    #: an invalidation raced with our GETS fill; drop the line on completion
    invalidate_on_fill: bool = False
    #: TS-Snoop logical state our ordered-but-unfilled miss holds
    logical_state: Any = None
    #: TS-Snoop data responses owed to requesters ordered behind our miss
    owed: Optional[List[Any]] = None


class MSHRFile:
    """A bounded set of MSHR entries indexed by block number."""

    def __init__(self, capacity: int = 16, name: str = "mshr") -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.name = name
        self._entries: Dict[int, MSHREntry] = {}
        #: Bound ``dict.get`` over the entry table -- the per-message lookup
        #: is hot enough that controllers pre-bind this to skip a call layer.
        self.get_entry = self._entries.get

    # ------------------------------------------------------------ life cycle
    def allocate(self, block: int, kind: str, issue_time: int) -> MSHREntry:
        if block in self._entries:
            raise ValueError(f"{self.name}: block {block} already in flight")
        if len(self._entries) >= self.capacity:
            raise MSHRFullError(f"{self.name}: all {self.capacity} MSHRs in use")
        entry = MSHREntry(block, kind, issue_time)
        self._entries[block] = entry
        return entry

    def release(self, block: int) -> MSHREntry:
        entry = self._entries.pop(block, None)
        if entry is None:
            raise KeyError(f"{self.name}: no in-flight entry for block {block}")
        return entry

    # ---------------------------------------------------------------- lookup
    def __contains__(self, block: int) -> bool:
        return block in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def blocks_in_flight(self) -> List[int]:
        return list(self._entries.keys())
