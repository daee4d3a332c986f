"""Unit tests for the blocking processor model (SC and TSO cores)."""

import pytest

from repro.processor.processor import Processor, ProcessorConfig
from repro.protocols.timing import ProtocolTiming
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.workloads.generator import PackedReferenceStream

from tests.conftest import ref


class FakeController(Component):
    """A cache controller stub with a fixed access latency."""

    def __init__(self, sim, latency=50):
        super().__init__(sim, "fake-l2")
        self.latency = latency
        self.accesses = []

    def access(self, block, access_type, done):
        self.accesses.append((self.sim.now, block, access_type))
        self.schedule(self.latency, done)


class TestProcessorConfig:
    def test_compute_time_rounds_up(self):
        config = ProcessorConfig(instructions_per_ns=4)
        assert config.compute_time(0) == 0
        assert config.compute_time(1) == 1
        assert config.compute_time(8) == 2
        assert config.compute_time(9) == 3

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ProcessorConfig(instructions_per_ns=0)


class TestProcessor:
    def test_blocking_execution_interleaves_compute_and_memory(self):
        sim = Simulator()
        controller = FakeController(sim, latency=50)
        stream = [ref(1, "load", think=40), ref(2, "store", think=40)]
        cpu = Processor(sim, 0, controller, iter(stream))
        cpu.start()
        sim.run()
        # 10 ns compute + access, then 50 ns stall, repeated.
        assert [t for t, _b, _a in controller.accesses] == [10, 70]
        assert cpu.finished
        assert cpu.finish_time == 120
        assert cpu.instructions_executed == 80
        assert cpu.references_issued == 2

    def test_counts_reads_and_writes(self):
        sim = Simulator()
        controller = FakeController(sim)
        stream = [ref(1, "load"), ref(2, "store"), ref(3, "atomic")]
        cpu = Processor(sim, 0, controller, iter(stream))
        cpu.start()
        sim.run()
        assert cpu.reads == 1
        assert cpu.writes == 2

    def test_on_finish_callback(self):
        sim = Simulator()
        controller = FakeController(sim)
        finished = []
        cpu = Processor(sim, 3, controller, iter([ref(1)]),
                        on_finish=finished.append)
        cpu.start()
        sim.run()
        assert finished == [cpu]

    def test_phase_barrier_stalls_until_resumed(self):
        sim = Simulator()
        controller = FakeController(sim, latency=10)
        stream = [ref(i) for i in range(6)]
        reached = []
        cpu = Processor(sim, 0, controller, iter(stream),
                        on_phase=reached.append, phase_boundary=3)
        cpu.start()
        sim.run()
        assert reached == [cpu]
        assert cpu.waiting_at_phase_barrier
        assert cpu.references_issued == 3
        assert not cpu.finished
        cpu.resume()
        sim.run()
        assert cpu.finished
        assert cpu.references_issued == 6

    def test_cannot_start_twice(self):
        sim = Simulator()
        cpu = Processor(sim, 0, FakeController(sim), iter([]))
        cpu.start()
        with pytest.raises(RuntimeError):
            cpu.start()

    def test_empty_stream_finishes_immediately(self):
        sim = Simulator()
        cpu = Processor(sim, 0, FakeController(sim), iter([]))
        cpu.start()
        sim.run()
        assert cpu.finished
        assert cpu.finish_time == 0


def _issued(stream):
    """Every (time, block, access) a processor issues, plus its totals."""
    sim = Simulator()
    controller = FakeController(sim, latency=7)
    cpu = Processor(sim, 0, controller, stream)
    cpu.start()
    sim.run()
    return controller.accesses, cpu.instructions_executed, cpu.references_issued


class TestStreamShapes:
    """Every accepted stream shape drives the one packed-column puller."""

    REFERENCES = [ref(3, "load", think=5), ref(9, "store", think=0),
                  ref(3, "atomic", think=13), ref(0, "load", think=1)]

    def test_list_iterator_and_packed_stream_issue_identically(self):
        packed = PackedReferenceStream.from_references(self.REFERENCES)
        from_list = _issued(list(self.REFERENCES))
        assert _issued(iter(self.REFERENCES)) == from_list
        assert _issued(packed) == from_list
        accesses, instructions, issued = from_list
        assert [(b, a) for _t, b, a in accesses] == [
            (r.block, r.access_type) for r in self.REFERENCES]
        assert instructions == sum(r.think_instructions
                                   for r in self.REFERENCES)
        assert issued == len(self.REFERENCES)

    def test_packed_stream_is_read_in_place(self):
        packed = PackedReferenceStream.from_references(self.REFERENCES)
        before = packed.columns()
        _issued(packed)
        assert packed.columns() == before


class FakeTSOController(FakeController):
    """The stub plus the timing handle the TSO forwarding path consults."""

    def __init__(self, sim, latency=50):
        super().__init__(sim, latency)
        self.timing = ProtocolTiming()


TSO = ProcessorConfig(consistency="tso")


def _run_tso(stream, latency=50):
    sim = Simulator()
    controller = FakeTSOController(sim, latency=latency)
    cpu = Processor(sim, 0, controller, iter(stream), config=TSO)
    cpu.start()
    sim.run()
    return cpu, controller


class TestTSOProcessor:
    def test_sc_remains_the_default_with_no_store_buffer(self):
        assert ProcessorConfig().consistency == "sc"
        sim = Simulator()
        cpu = Processor(sim, 0, FakeController(sim), iter([]))
        assert cpu.store_buffer is None

    def test_unknown_consistency_model_rejected(self):
        with pytest.raises(ValueError, match="unknown consistency model"):
            ProcessorConfig(consistency="weak")

    def test_store_retires_into_the_buffer_and_the_load_overtakes_it(self):
        # ref order is store x, load y -- but the load reaches the cache at
        # t=0 while the store drains at t=30.  This is the store->load
        # reordering TSO permits (and the SB litmus outcome's mechanism).
        cpu, controller = _run_tso([ref(1, "store"), ref(2, "load")])
        assert [(t, b) for t, b, _a in controller.accesses] == [(0, 2), (30, 1)]
        assert cpu.finished
        # The load returned at 50; the drain (issued at 30) finished at 80,
        # and the core only declares itself done once the buffer is empty.
        assert cpu.finish_time == 80
        assert cpu.references_issued == 2
        assert cpu.writes == 1
        assert cpu.reads == 1

    def test_same_block_load_forwards_from_the_buffer(self):
        cpu, controller = _run_tso([ref(1, "store"), ref(1, "load")])
        # Only the drain touches the cache: the load was satisfied from the
        # youngest buffered store without a coherence transaction.
        assert [(t, b) for t, b, _a in controller.accesses] == [(30, 1)]
        assert cpu.store_buffer_forwards == 1
        assert cpu.finished
        assert cpu.finish_time == 80

    def test_atomic_fences_wait_for_the_buffer_to_drain(self):
        cpu, controller = _run_tso([ref(1, "store"), ref(2, "atomic")])
        # The atomic cannot issue at t=0: it waits for the drain (30 + 50
        # latency) and only then performs its blocking access.
        assert [(t, b) for t, b, _a in controller.accesses] == [
            (30, 1),
            (80, 2),
        ]
        assert cpu.finished
        assert cpu.finish_time == 130

    def test_full_buffer_stalls_the_ninth_store(self):
        stream = [ref(block, "store") for block in range(9)]
        cpu, controller = _run_tso(stream)
        assert cpu.store_buffer_stalls >= 1
        assert cpu.finished
        assert cpu.references_issued == 9
        # Every store eventually drained through the cache, in FIFO order.
        assert [b for _t, b, _a in controller.accesses] == list(range(9))

    def test_finish_waits_for_the_tail_drain(self):
        cpu, controller = _run_tso([ref(1, "store")])
        assert cpu.finished
        # push at 0, drain issues at 30, completes at 80.
        assert cpu.finish_time == 80
        assert not cpu.store_buffer
