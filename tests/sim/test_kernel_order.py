"""Dispatch-order oracle for the event kernel.

The simulator's calendar lanes must dispatch exactly as the plain heap
below does: ``(time, priority, FIFO)``.  Hypothesis generates programs of
nested callbacks -- so callbacks schedule at the current tick at a lower,
the same and a higher priority than the lane being drained -- and slices
the run with ``run(until=...)``, ``run(max_events=...)`` and ``stop()``,
scheduling more work between the slices (as a phase barrier's resume does).
After each ``run`` the dispatch log, the clock, the return value,
``pending_events`` and ``events_processed`` must match the reference.
"""

import heapq

import pytest

from repro.sim.kernel import Simulator

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402


class ReferenceKernel:
    """The order specification: a heap of (time, priority, seq, callback, arg)."""

    def __init__(self):
        self.heap = []
        self.seq = 0
        self.now = 0
        self.events_processed = 0
        self.stopped = False

    def schedule(self, delay, callback, arg=None, priority=0):
        entry = (self.now + delay, priority, self.seq, callback, arg)
        heapq.heappush(self.heap, entry)
        self.seq += 1

    def schedule_at(self, time, callback, arg=None, priority=0):
        self.schedule(time - self.now, callback, arg, priority)

    def stop(self):
        self.stopped = True

    @property
    def pending_events(self):
        return len(self.heap)

    def run(self, until=None, max_events=None):
        processed = 0
        self.stopped = False
        while self.heap and (until is None or self.heap[0][0] <= until):
            if max_events is not None and processed >= max_events:
                break  # early exit: the clock stays on the last entry
            time, _priority, _seq, callback, arg = heapq.heappop(self.heap)
            self.now = time
            callback() if arg is None else callback(arg)
            processed += 1
            self.events_processed += 1
            if self.stopped:
                break
        else:
            if until is not None and until > self.now:
                self.now = until
        return processed


# A command is (delay, priority, absolute, payload, stop, children): the
# children are scheduled from inside the command's callback, so a delay of 0
# schedules at the tick being drained, at any priority relative to it.
_delays = st.sampled_from([0, 0, 0, 1, 2, 7])
_priorities = st.integers(min_value=0, max_value=3)


def _commands(depth):
    children = _commands(depth - 1) if depth > 0 else st.just(())
    return st.lists(
        st.tuples(
            _delays,
            _priorities,
            st.booleans(),  # schedule_at instead of schedule
            st.booleans(),  # callback(payload) instead of callback()
            st.integers(min_value=0, max_value=15).map(lambda n: n == 0),  # stop
            children,
        ),
        max_size=4 if depth < 2 else 6,
    ).map(tuple)


_runs = st.lists(
    st.tuples(
        _commands(1),  # scheduled before the slice, from outside any callback
        st.one_of(st.none(), st.integers(min_value=0, max_value=20)),  # until
        st.one_of(st.none(), st.integers(min_value=0, max_value=6)),  # budget
    ),
    max_size=5,
)


def _execute(kernel, program, runs):
    """Interpret ``program`` on ``kernel``; return every observable."""
    log = []
    ids = iter(range(1_000_000))

    def schedule_commands(commands):
        for delay, priority, absolute, payload, stop, children in commands:
            ident = next(ids)

            def callback(arg=None, ident=ident, stop=stop, children=children):
                log.append((ident, kernel.now, arg))
                if stop:
                    kernel.stop()
                schedule_commands(children)

            arg = ("payload", ident) if payload else None
            if absolute:
                kernel.schedule_at(kernel.now + delay, callback, arg, priority)
            else:
                kernel.schedule(delay, callback, arg, priority)

    schedule_commands(program)
    observed = []
    for commands, until, budget in list(runs) + [((), None, None)]:
        schedule_commands(commands)
        processed = kernel.run(until=until, max_events=budget)
        observed.append(
            (
                processed,
                kernel.now,
                kernel.pending_events,
                kernel.events_processed,
                len(log),
            )
        )
    return log, observed


@settings(max_examples=400, deadline=None)
@given(program=_commands(2), runs=_runs)
def test_simulator_matches_reference_order(program, runs):
    expected = _execute(ReferenceKernel(), program, runs)
    assert _execute(Simulator(), program, runs) == expected


def _same_tick_log(kernel, lane_priority, nested_priority):
    """Two entries share a lane; the first schedules at the current tick."""
    log = []

    def first():
        log.append("first")
        kernel.schedule(0, log.append, "nested", nested_priority)

    kernel.schedule(5, first, None, lane_priority)
    kernel.schedule(5, log.append, "second", lane_priority)
    kernel.run()
    return log


@pytest.mark.parametrize(
    "lane_priority,nested_priority,expected",
    [
        (2, 0, ["first", "nested", "second"]),  # lower: preempts the lane
        (3, 1, ["first", "nested", "second"]),  # lower, positive: preempts too
        (2, 2, ["first", "second", "nested"]),  # same: joins the lane's tail
        (2, 3, ["first", "second", "nested"]),  # higher: runs after the lane
    ],
)
def test_same_tick_scheduling_relative_to_drained_lane(
    lane_priority, nested_priority, expected
):
    for kernel in (ReferenceKernel(), Simulator()):
        assert _same_tick_log(kernel, lane_priority, nested_priority) == expected
