"""Endpoint ordering queue (the augmented priority queue of Section 2.2).

Destinations receive address transactions out of order and with positive
slack.  The ordering queue restores the total order: a transaction inserted
with slack ``S`` while the endpoint's guarantee time is ``GT`` matures at
logical time ``GT + S``; every token received from the adjacent switch
advances GT by one and releases, in tie-break order, every transaction whose
maturity has been reached.

The paper notes that priority queues "can be implemented with constant time
operations using linear space"; a binary heap is ample for a simulator.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, List, Optional


@dataclass(order=True, slots=True)
class PendingTransaction:
    """Heap entry: matures when the endpoint GT reaches ``maturity``."""

    maturity: int
    source: int
    sequence: int
    payload: Any = field(compare=False)
    inserted_at_gt: int = field(compare=False, default=0)


class OrderingQueue:
    """Per-endpoint reorder buffer driven by token arrivals."""

    def __init__(self, endpoint: int, initial_gt: int = 0) -> None:
        self.endpoint = endpoint
        self.guarantee_time = initial_gt
        self._heap: List[PendingTransaction] = []
        self.inserted = 0
        self.released = 0
        self.max_occupancy = 0

    # ------------------------------------------------------------ insertion
    def insert(
        self, payload: Any, slack: int, source: int, sequence: int = 0
    ) -> PendingTransaction:
        """Insert a transaction that arrived with ``slack`` logical time left."""
        if slack < 0:
            raise ValueError("slack must be non-negative")
        entry = PendingTransaction(
            maturity=self.guarantee_time + slack,
            source=source,
            sequence=sequence,
            payload=payload,
            inserted_at_gt=self.guarantee_time,
        )
        heapq.heappush(self._heap, entry)
        self.inserted += 1
        self.max_occupancy = max(self.max_occupancy, len(self._heap))
        return entry

    # ---------------------------------------------------------------- tokens
    def on_token(self) -> List[PendingTransaction]:
        """Advance GT by one token and release every matured transaction.

        Releases are returned in total order (maturity, then source id, then
        sequence), exactly the processing order the snooping protocol must
        observe.

        The release rule is *strict*: a transaction with ordering time ``v``
        is released when GT reaches ``v + 1``.  Because slack never goes
        negative, every copy of a transaction arrives no later than its
        maturity, so all endpoints release it (and everything tied with it)
        in the very same GT drain -- this is what makes same-OT ties resolve
        by source id everywhere rather than by arrival order.
        """
        self.guarantee_time += 1
        return self._drain_matured()

    def release_current(self) -> List[PendingTransaction]:
        """Release transactions whose ordering time has already passed.

        With the strict release rule this is normally empty (a transaction
        can never arrive after its maturity); it is kept as a safety valve so
        a queue is never left holding stale entries if a caller advances GT
        externally.
        """
        return self._drain_matured()

    def _drain_matured(self) -> List[PendingTransaction]:
        released: List[PendingTransaction] = []
        while self._heap and self._heap[0].maturity < self.guarantee_time:
            released.append(heapq.heappop(self._heap))
        self.released += len(released)
        return released

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self._heap)

    def peek(self) -> Optional[PendingTransaction]:
        return self._heap[0] if self._heap else None

    def pending_slack(self) -> List[int]:
        """Remaining slack of every queued transaction (for buffering stats)."""
        return sorted(entry.maturity - self.guarantee_time for entry in self._heap)
