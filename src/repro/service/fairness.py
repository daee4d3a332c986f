"""Per-client deficit-round-robin scheduling for the job manager.

:class:`DeficitRoundRobinQueue` replaces the flat priority+FIFO replica
queue of :class:`~repro.service.manager.JobManager` with *weighted fair
queueing across clients*: every enqueued unit carries a ``client_id`` and
a ``cost`` (the admission controller's unit-cost estimate -- the same
currency the pending-cost budget is denominated in), and the scheduler
serves clients deficit-round-robin:

* each client owns one lane, ordered priority-then-FIFO (so a single
  client sees exactly the old scheduling behaviour);
* the scheduler visits backlogged lanes in a round-robin ring; on each
  visit a lane's *deficit counter* grows by ``quantum * weight`` and the
  lane is served while the deficit covers the head unit's cost;
* the quantum is the largest unit cost seen so far, so every visit can
  afford at least one unit and no lane ever banks more than one quantum
  of unspent credit -- which bounds starvation *by construction*: over
  any interval in which two clients stay backlogged, their cumulative
  service per unit weight differs by at most one quantum each
  (property-tested in ``tests/service/test_fairness.py``).

The queue mirrors the ``asyncio.Queue`` surface the manager's workers
consume (``put_nowait`` / ``get`` / ``task_done`` / ``join``) and adds
``hold()`` / ``release()`` -- a scheduling gate tests use to build a
deterministic backlog before any unit is dispatched.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

#: Weight assigned to clients that were never given an explicit one.
DEFAULT_WEIGHT = 1


class _Lane:
    """One client's backlog: a priority-then-FIFO heap plus DRR state."""

    __slots__ = ("heap", "deficit", "fresh_visit")

    def __init__(self) -> None:
        self.heap: List[Tuple[int, int, Any, int]] = []
        self.deficit = 0
        self.fresh_visit = True


class DeficitRoundRobinQueue:
    """Weighted deficit-round-robin queue over per-client lanes.

    ``weights`` maps client ids to positive integer weights (missing
    clients get :data:`DEFAULT_WEIGHT`).  ``record_schedule=True`` keeps
    the full serve log as ``(client_id, cost)`` tuples -- unbounded, so it
    is off by default and enabled by the fairness tests.
    """

    def __init__(
        self,
        *,
        weights: Optional[Dict[str, int]] = None,
        record_schedule: bool = False,
    ) -> None:
        self._weights: Dict[str, int] = {}
        for client, weight in (weights or {}).items():
            self.set_weight(client, weight)
        self._lanes: Dict[str, _Lane] = {}
        self._ring: Deque[str] = deque()
        self._sequence = itertools.count()
        self._size = 0
        self._quantum = 1
        self._unfinished = 0
        self._finished = asyncio.Event()
        self._finished.set()
        self._ready = asyncio.Event()
        self._gate = asyncio.Event()
        self._gate.set()
        #: Cumulative dequeued cost per client (the fairness ledger).
        self.served_cost: Dict[str, int] = {}
        #: Units dequeued per client.
        self.served_units: Dict[str, int] = {}
        self.serve_log: Optional[List[Tuple[str, int]]] = (
            [] if record_schedule else None
        )

    # ------------------------------------------------------------- weights
    def set_weight(self, client_id: str, weight: int) -> None:
        """Give ``client_id`` a weighted share (must be a positive int)."""
        if not isinstance(weight, int) or weight < 1:
            raise ValueError(
                f"client weight must be a positive integer, got {weight!r} "
                f"for client {client_id!r}"
            )
        self._weights[client_id] = weight

    def weight_of(self, client_id: str) -> int:
        return self._weights.get(client_id, DEFAULT_WEIGHT)

    @property
    def quantum(self) -> int:
        """The DRR quantum: the largest unit cost seen so far."""
        return self._quantum

    # ---------------------------------------------------------------- gate
    def hold(self) -> None:
        """Stop dispatching units (enqueues still accepted)."""
        self._gate.clear()

    def release(self) -> None:
        """Resume dispatching units held back by :meth:`hold`."""
        self._gate.set()

    # ------------------------------------------------------------- enqueue
    def put_nowait(self, client_id: str, priority: int, cost: int, item: Any) -> None:
        """Enqueue one unit of ``cost`` for ``client_id``.

        Within a client, lower ``priority`` dispatches first and ties are
        FIFO -- the exact ordering contract of the old flat queue.
        """
        if cost < 1:
            raise ValueError(f"unit cost must be positive, got {cost!r}")
        lane = self._lanes.get(client_id)
        if lane is None:
            lane = self._lanes[client_id] = _Lane()
        if not lane.heap:
            lane.fresh_visit = True
            self._ring.append(client_id)
        heapq.heappush(lane.heap, (priority, next(self._sequence), item, cost))
        self._size += 1
        self._quantum = max(self._quantum, cost)
        self._unfinished += 1
        self._finished.clear()
        self._ready.set()

    # ------------------------------------------------------------- dequeue
    def _pop(self) -> Tuple[str, Any, int]:
        """The DRR scheduling decision; requires a non-empty queue."""
        while True:
            client = self._ring[0]
            lane = self._lanes[client]
            if lane.fresh_visit:
                lane.deficit += self._quantum * self.weight_of(client)
                lane.fresh_visit = False
            head_cost = lane.heap[0][3]
            if lane.deficit >= head_cost:
                _priority, _seq, item, cost = heapq.heappop(lane.heap)
                lane.deficit -= cost
                self._size -= 1
                if not lane.heap:
                    # An emptied lane forfeits its leftover credit: deficit
                    # only accumulates while a client is backlogged.
                    lane.deficit = 0
                    self._ring.popleft()
                return client, item, cost
            # Deficit does not cover the head unit: bank it and move on.
            self._ring.rotate(-1)
            lane.fresh_visit = True

    async def get(self) -> Any:
        """Dequeue the next unit per the DRR schedule (awaits work)."""
        while True:
            await self._gate.wait()
            if self._size and self._gate.is_set():
                client, item, cost = self._pop()
                self.served_cost[client] = self.served_cost.get(client, 0) + cost
                self.served_units[client] = self.served_units.get(client, 0) + 1
                if self.serve_log is not None:
                    self.serve_log.append((client, cost))
                return item
            self._ready.clear()
            await self._ready.wait()

    # --------------------------------------------------------- join/drain
    def task_done(self) -> None:
        if self._unfinished <= 0:
            raise ValueError("task_done() called more times than put_nowait()")
        self._unfinished -= 1
        if self._unfinished == 0:
            self._finished.set()

    async def join(self) -> None:
        """Wait until every enqueued unit has been processed."""
        await self._finished.wait()

    # --------------------------------------------------------- introspection
    def __len__(self) -> int:
        return self._size

    def backlog_of(self, client_id: str) -> int:
        lane = self._lanes.get(client_id)
        return len(lane.heap) if lane is not None else 0

    def clients_dict(self) -> Dict[str, Dict[str, int]]:
        """Per-client scheduling state for the metrics snapshot."""
        out: Dict[str, Dict[str, int]] = {}
        for client in sorted(set(self.served_cost) | set(self._lanes)):
            out[client] = {
                "weight": self.weight_of(client),
                "served_cost": self.served_cost.get(client, 0),
                "served_units": self.served_units.get(client, 0),
                "backlog": self.backlog_of(client),
            }
        return out
