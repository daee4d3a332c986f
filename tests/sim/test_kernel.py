"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


class TestSimulator:
    def test_time_advances_with_events(self, sim):
        times = []
        sim.schedule(10, lambda: times.append(sim.now))
        sim.schedule(25, lambda: times.append(sim.now))
        sim.run()
        assert times == [10, 25]
        assert sim.now == 25

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_at_past_rejected(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_run_until_stops_before_later_events(self, sim):
        fired = []
        sim.schedule(10, lambda: fired.append(10))
        sim.schedule(100, lambda: fired.append(100))
        sim.run(until=50)
        assert fired == [10]
        assert sim.now == 50
        assert sim.pending_events == 1

    def test_max_events_bounds_work(self, sim):
        fired = []
        for i in range(10):
            sim.schedule(i + 1, lambda i=i: fired.append(i))
        sim.run(max_events=3)
        assert len(fired) == 3

    def test_nested_scheduling(self, sim):
        fired = []

        def first():
            fired.append("first")
            sim.schedule(5, lambda: fired.append("second"))

        sim.schedule(1, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 6

    def test_stop_requests_halt(self, sim):
        fired = []
        sim.schedule(1, lambda: (fired.append(1), sim.stop()))
        sim.schedule(2, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending_events == 1

    def test_events_processed_counter(self, sim):
        for i in range(5):
            sim.schedule(i, lambda: None)
        sim.run()
        assert sim.events_processed == 5

    def test_reset_clears_state(self, sim):
        sim.schedule(5, lambda: None)
        sim.run()
        sim.reset()
        assert sim.now == 0
        assert sim.pending_events == 0

    # ------------------------------------------------- until clock semantics
    def test_run_until_advances_clock_when_queue_drains(self, sim):
        sim.schedule(10, lambda: None)
        sim.run(until=50)
        assert sim.now == 50

    def test_run_until_advances_clock_on_empty_queue(self, sim):
        sim.run(until=25)
        assert sim.now == 25

    def test_run_until_never_moves_clock_backwards(self, sim):
        sim.schedule(10, lambda: None)
        sim.run()
        assert sim.now == 10
        sim.run(until=5)
        assert sim.now == 10

    def test_run_until_not_advanced_on_max_events_exit(self, sim):
        for t in (1, 2, 3):
            sim.schedule(t, lambda: None)
        sim.run(until=100, max_events=2)
        assert sim.now == 2

    def test_run_until_not_advanced_on_stop(self, sim):
        sim.schedule(1, sim.stop)
        sim.schedule(2, lambda: None)
        sim.run(until=100)
        assert sim.now == 1

    def test_run_until_not_advanced_when_stop_drains_queue(self, sim):
        sim.schedule(1, sim.stop)
        sim.run(until=100)
        assert sim.now == 1


class TestSchedulingApi:
    def test_payload_and_no_payload_dispatch(self, sim):
        log = []
        sim.schedule(3, log.append, "payload")
        sim.schedule(3, lambda: log.append("bare"))
        sim.run()
        assert log == ["payload", "bare"]

    def test_schedule_returns_nothing(self, sim):
        assert sim.schedule(1, lambda: None) is None
        assert sim.schedule_at(2, lambda: None, None, 1) is None

    def test_schedule_at_orders_with_relative(self, sim):
        log = []
        sim.schedule_at(7, log.append, "absolute")
        sim.schedule(7, log.append, "relative")
        sim.schedule_at(6, log.append, "earlier")
        sim.run()
        assert log == ["earlier", "absolute", "relative"]

    def test_negative_priority_rejected(self, sim):
        with pytest.raises(SimulationError, match="negative priority"):
            sim.schedule(1, lambda: None, None, -1)
        with pytest.raises(SimulationError, match="negative priority"):
            sim.schedule_at(1, lambda: None, priority=-2)
        assert sim.pending_events == 0

    def test_simulator_takes_no_arguments(self):
        with pytest.raises(TypeError):
            Simulator(scheduler="heapq")

    def test_pending_events_counts_every_priority(self, sim):
        sim.schedule(1, lambda: None)
        sim.schedule(1, lambda: None, None, 2)
        sim.schedule(4, lambda: None, None, 1)
        assert sim.pending_events == 3
        sim.run()
        assert sim.pending_events == 0

    def test_stop_mid_lane_leaves_rest_queued(self, sim):
        log = []
        sim.schedule(1, lambda: (log.append("first"), sim.stop()))
        sim.schedule(1, log.append, "second")
        sim.run()
        assert log == ["first"]
        assert sim.pending_events == 1
        sim.run()
        assert log == ["first", "second"]

    def test_same_tick_work_runs_in_the_same_drain(self, sim):
        log = []

        def first():
            log.append("first")
            sim.schedule(0, log.append, "nested")

        sim.schedule(3, first)
        assert sim.run() == 2
        assert log == ["first", "nested"]
        assert sim.now == 3

    def test_reset_discards_pending_work(self, sim):
        sim.schedule(4, lambda: None)
        sim.schedule(4, lambda: None, None, 1)
        sim.reset()
        assert sim.pending_events == 0
        assert sim.run() == 0

    def test_raising_callback_leaves_the_rest_queued(self, sim):
        log = []

        def boom():
            raise RuntimeError("mid-lane failure")

        sim.schedule(5, log.append, "before")
        sim.schedule(5, boom)
        sim.schedule(5, log.append, "after")
        with pytest.raises(RuntimeError):
            sim.run()
        assert log == ["before"]
        assert sim.events_processed == 1
        assert sim.pending_events == 1
        sim.run()
        assert log == ["before", "after"]
        assert sim.pending_events == 0
