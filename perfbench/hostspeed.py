"""Host-speed sampling: fixed pure-Python loops timed while the work runs.

The benchmark's host shares its cores with other tenants.  Their load
slows every Python process on it by up to a half, in phases that last from
under a second to minutes, so the wall time of the same work moves by more
than any bound a comparison could use.  CPU time moves with it (the cores
themselves run slower), so it does not help.

``HostSampler`` measures the host's speed while the measured work runs: an
interval timer interrupts the work every ``SAMPLE_PERIOD_S`` and a signal
handler times two short calibration loops in thread CPU time.  Neither
imports anything from the repository, so no change to ``src/`` moves them.

- the *event* loop: heap pushes and pops, small objects, dict updates --
  the interpreter-bound part of the simulator's work;
- the *chase* loop: a walk of dependent loads through a table of
  ``4 << CHASE_BITS`` bytes -- the memory-bound part.

Measured beside repetitions of the simulator, the event loop alone slows
more than the simulator does when the neighbours load the cores, and the
chase loop alone less; their geometric mean tracks it best.  Then

    speed factor = sqrt(median(event s) / EVENT_REF_S
                        * median(chase s) / CHASE_REF_S)
    net seconds  = wall seconds - seconds spent in samples

A factor of 1.3 means the host ran 1.3 times slower than the reference
host.  Every gated time is the net time divided by the factor of the work
it measures (every rate is multiplied by it): the time the work would have
taken on the reference host.  The raw wall-clock figures are printed and
recorded beside them.
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time
from array import array
from typing import List, Optional

#: Loop durations on the reference host, a 2-vCPU x86-64 Xeon virtual
#: machine with Python 3.11.7, in a quiet phase.
EVENT_REF_S = 0.002
CHASE_REF_S = 0.0006
#: Events per event-loop sample.
EVENTS = 1_500
#: The chase table has ``1 << CHASE_BITS`` int32 slots (8 MiB).
CHASE_BITS = 21
#: Loads per chase-loop sample.
CHASE_STEPS = 4_000
#: Wall time between two samples while the work runs.
SAMPLE_PERIOD_S = 0.05
_chase_table: Optional[array] = None


def chase_table() -> array:
    """The chase table, built on first use: slot ``i`` holds the successor
    of ``i`` under a full-period LCG, so one walk visits every slot in a
    scattered order."""
    global _chase_table
    if _chase_table is None:
        mask = (1 << CHASE_BITS) - 1
        _chase_table = array(
            "i", ((i * 1103515245 + 12345) & mask for i in range(mask + 1))
        )
    return _chase_table


#: Resident size of the chase table; ``peak_rss_mb`` excludes it.
CHASE_TABLE_MIB = (4 << CHASE_BITS) / 2**20


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: int, key: int, value: int) -> None:
        self.time = time
        self.key = key
        self.value = value


def _events(count: int) -> int:
    """A deterministic event loop: push, pop, fold into a dict."""
    queue: list = []
    totals: dict = {}
    state = 12345
    for index in range(count):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(
            queue, (state & 0xFFFF, index, _Event(state, index & 255, index))
        )
        if len(queue) > 64:
            _when, _order, event = heapq.heappop(queue)
            totals[event.key] = totals.get(event.key, 0) + event.value
    return len(totals)


def _chase(table: array, start: int, steps: int) -> int:
    slot = start
    for _ in range(steps):
        slot = table[slot]
    return slot


class HostSampler:
    """Times calibration samples every ``SAMPLE_PERIOD_S`` inside a ``with``.

    Samples run in the main thread (Python signal handlers do) and hold
    the GIL, so work in other threads waits for them too; ``spent_s``
    (their CPU time) is what the work lost to them.
    """

    def __init__(self) -> None:
        self.event_s: List[float] = []
        self.chase_s: List[float] = []
        #: Seconds the samples took inside the ``with``.
        self.spent_s = 0.0
        self._table = chase_table()
        self._slot = 0
        self._previous = None

    def _take(self, _signum=None, _frame=None) -> None:
        # Thread CPU time, not wall time: when the work runs in other
        # threads, a sample's wall time also holds its waits for the GIL,
        # which measure the work, not the host.
        start = time.thread_time()
        _events(EVENTS)
        middle = time.thread_time()
        self._slot = _chase(self._table, self._slot, CHASE_STEPS)
        end = time.thread_time()
        self.event_s.append(middle - start)
        self.chase_s.append(end - middle)

    def __enter__(self) -> "HostSampler":
        self._previous = signal.signal(signal.SIGALRM, self._take)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.spent_s = sum(self.event_s) + sum(self.chase_s)
        if not self.event_s:  # work shorter than one period: sample after it
            self._take()

    @property
    def factor(self) -> float:
        """How many times slower than the reference host the host ran."""
        return math.sqrt(
            statistics.median(self.event_s)
            / EVENT_REF_S
            * statistics.median(self.chase_s)
            / CHASE_REF_S
        )
