"""Discrete-event simulation kernel.

Times are integer nanoseconds throughout the library.  Using integers keeps
event ordering exact and makes runs reproducible bit-for-bit, which the
perturbation methodology of the paper (Section 4.3) relies on: perturbed
replicas differ *only* in the injected random delays.

Work runs in ``(time, priority, FIFO)`` order: at equal times lower
priorities run first, and entries with equal time and priority run in the
order they were scheduled.  The queue is a calendar of exact-tick buckets.
Each bucket holds one FIFO lane per priority, and every queued entry is a
bare ``(callback, arg)`` pair; a small heap of the distinct bucket times
finds the next tick.  The simulated networks schedule in dense same-tick
waves, so :meth:`Simulator.run` drains a whole lane per bucket lookup: a
tight loop of pops and calls.

Scheduling returns nothing.  No model object ever withdraws work it has
scheduled, so the kernel keeps no per-entry handles, shells or counts.
"""
# repro-lint: hot

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (scheduling in the past, etc.)."""


class Simulator:
    """The event-driven simulation engine: the clock and the calendar.

    Model components call :meth:`schedule` / :meth:`schedule_at` to arrange
    future work; :meth:`run` drains it until the calendar empties, a time
    limit is hit, an event budget is exhausted, or :meth:`stop` is called.
    The clock is the plain attribute ``now``: :meth:`run` and :meth:`reset`
    write it, and model code only reads it.
    """

    def __init__(self) -> None:
        #: time -> FIFO lane of priority-0 ``(callback, arg)`` pairs.  Nearly
        #: everything the simulated system schedules has priority 0, so the
        #: common push is one dict lookup and one append.  Every bucket time
        #: has a lane here (empty when the bucket holds only other
        #: priorities) and one entry in ``_times`` until :meth:`run` retires
        #: the drained bucket.
        self._buckets: Dict[int, deque] = {}
        #: time -> {priority: lane} for positive priorities, made on demand.
        self._higher: Dict[int, Dict[int, deque]] = {}
        #: Heap of the bucket times.
        self._times: List[int] = []
        #: Current simulated time in nanoseconds.  Not a property: model
        #: code reads the clock on nearly every event.
        self.now = 0
        self._events_processed = 0
        self._stop_requested = False

    # ------------------------------------------------------------------ time
    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Entries scheduled but not yet dispatched."""
        return sum(map(len, self._buckets.values())) + sum(
            len(lane) for lanes in self._higher.values() for lane in lanes.values()
        )

    # -------------------------------------------------------------- schedule
    def schedule(
        self,
        delay: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        """Run ``callback`` ``delay`` ns from now.

        The dispatcher calls ``callback(arg)``, or ``callback()`` when
        ``arg`` is None, so hot producers pass a pre-bound method plus its
        payload instead of allocating a closure per event.  ``priority``
        breaks ties at equal times (lower first; negative is an error).
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        # The push below is repeated in schedule_at rather than called:
        # both are per-message hot paths.
        if priority:
            self._push_higher(time, callback, arg, priority)
            return
        lane = self._buckets.get(time)
        if lane is None:
            self._buckets[time] = deque(((callback, arg),))
            heappush(self._times, time)
        else:
            lane.append((callback, arg))

    def schedule_at(
        self,
        time: int,
        callback: Callable[..., None],
        arg: Any = None,
        priority: int = 0,
    ) -> None:
        """Absolute-time variant of :meth:`schedule`."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at {time}, current time is {self.now}"
            )
        if priority:
            self._push_higher(time, callback, arg, priority)
            return
        lane = self._buckets.get(time)
        if lane is None:
            self._buckets[time] = deque(((callback, arg),))
            heappush(self._times, time)
        else:
            lane.append((callback, arg))

    def _push_higher(
        self, time: int, callback: Callable[..., None], arg: Any, priority: int
    ) -> None:
        """Append to a non-zero priority lane (cold: almost all work is 0)."""
        if priority < 0:
            raise SimulationError(f"negative priority {priority}")
        if time not in self._buckets:
            self._buckets[time] = deque()
            heappush(self._times, time)
        lanes = self._higher.get(time)
        if lanes is None:
            self._higher[time] = {priority: deque(((callback, arg),))}
            return
        lane = lanes.get(priority)
        if lane is None:
            lanes[priority] = deque(((callback, arg),))
        else:
            lane.append((callback, arg))

    # ------------------------------------------------------------------- run
    def run(
        self,
        *,
        until: Optional[int] = None,
        max_events: Optional[int] = None,
    ) -> int:
        """Drain the calendar; return the number of entries dispatched.

        ``until`` is an inclusive simulated-time bound; ``max_events``
        bounds the work done by this call (useful for watchdogs in tests).
        Both are honoured per entry, also in the middle of a lane, and a
        later call resumes exactly where this one stopped.

        Clock semantics: when ``until`` is given and the call covers the full
        interval -- every entry at or before ``until`` ran, whether the
        calendar drained first or later entries remain -- the clock lands
        exactly on ``until``.  Early exits (:meth:`stop` or the
        ``max_events`` budget) leave the clock at the last dispatched entry,
        since the interval was not fully simulated.  The clock never moves
        backwards.
        """
        buckets = self._buckets
        higher = self._higher
        times = self._times
        budget = 0x7FFFFFFFFFFFFFFF if max_events is None else max_events
        processed = 0
        completed = True
        self._stop_requested = False
        try:
            while times:
                time = times[0]
                zero = buckets[time]
                if zero:
                    lane = zero
                    priority = 0
                else:
                    lanes = higher.get(time)
                    if not lanes:
                        # The bucket drained: retire its time.
                        heappop(times)
                        del buckets[time]
                        if lanes is not None:
                            del higher[time]
                        continue
                    priority = min(lanes)
                    lane = lanes[priority]
                    width = len(lanes)
                if until is not None and time > until:
                    break
                if processed >= budget:
                    completed = False
                    break
                self.now = time
                popleft = lane.popleft
                # Work the callbacks schedule into this lane is picked up by
                # this same drain.  Same-tick work at a lower priority orders
                # before the rest of a positive-priority lane: it lands in the
                # priority-0 lane or adds a lane, so either sends the loop
                # back to pick the least priority again.
                while lane:
                    callback, arg = popleft()
                    if arg is None:
                        callback()
                    else:
                        callback(arg)
                    processed += 1
                    if processed >= budget or self._stop_requested:
                        break
                    if priority and (zero or len(lanes) != width):
                        break
                if priority and not lane:
                    del lanes[priority]
                if self._stop_requested:
                    completed = False
                    break
            if completed and until is not None and until > self.now:
                self.now = until
        finally:
            self._events_processed += processed
        return processed

    def stop(self) -> None:
        """Request that :meth:`run` return after the current entry."""
        self._stop_requested = True

    def reset(self) -> None:
        """Discard all pending work and rewind the clock to zero."""
        self._buckets.clear()
        self._higher.clear()
        self._times.clear()
        self.now = 0
        self._events_processed = 0
