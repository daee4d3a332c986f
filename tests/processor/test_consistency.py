"""Unit tests for the coherence checker and the TSO store buffer."""

import pytest

from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import CacheState
from repro.processor.consistency import (
    STORE_BUFFER_CAPACITY,
    CoherenceChecker,
    StoreBuffer,
    check_swmr_invariant,
)


class TestCoherenceChecker:
    def test_clean_history_stays_clean(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=1, time=100)
        checker.record_read(1, 10, version=1, time=200)
        checker.record_write(1, 10, version=2, time=300)
        checker.record_read(0, 10, version=2, time=400)
        assert checker.clean
        checker.assert_clean()

    def test_duplicate_write_version_flagged(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=1, time=100)
        checker.record_write(1, 10, version=1, time=150)
        assert not checker.clean
        assert checker.violations[0].kind == "write-serialisation"

    def test_decreasing_write_version_flagged(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=5, time=100)
        checker.record_write(1, 10, version=3, time=150)
        assert not checker.clean

    def test_read_from_future_flagged(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=1, time=100)
        checker.record_read(1, 10, version=7, time=150)
        assert any(v.kind == "read-from-future" for v in checker.violations)

    def test_read_going_backward_flagged(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=3, time=50)
        checker.record_read(1, 10, version=3, time=100)
        checker.record_read(1, 10, version=1, time=200)
        assert any(v.kind == "read-went-backward" for v in checker.violations)

    def test_blocks_are_independent(self):
        checker = CoherenceChecker()
        checker.record_write(0, 10, version=1, time=100)
        checker.record_write(0, 11, version=1, time=100)
        assert checker.clean

    def test_assert_clean_raises_with_summary(self):
        checker = CoherenceChecker()
        checker.record_write(0, 1, version=1, time=0)
        checker.record_write(0, 1, version=1, time=1)
        try:
            checker.assert_clean()
        except AssertionError as error:
            assert "write-serialisation" in str(error)
        else:
            raise AssertionError("expected assert_clean to raise")

    def test_writes_to_returns_history(self):
        checker = CoherenceChecker()
        checker.record_write(2, 10, version=1, time=100)
        checker.record_write(3, 10, version=2, time=200)
        assert checker.writes_to(10) == [(100, 2, 1), (200, 3, 2)]


class _FakeController:
    def __init__(self):
        self.cache = PackedCacheArray(size_bytes=8 * 1024, associativity=4)


class TestSWMRInvariant:
    def test_single_writer_is_fine(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.MODIFIED)
        b.cache.install(11, CacheState.SHARED)
        assert check_swmr_invariant([a, b]) == []

    def test_two_writers_flagged(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.MODIFIED)
        b.cache.install(10, CacheState.MODIFIED)
        problems = check_swmr_invariant([a, b])
        assert len(problems) == 1
        assert "multiple writers" in problems[0]

    def test_writer_plus_sharer_flagged(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.MODIFIED)
        b.cache.install(10, CacheState.SHARED)
        problems = check_swmr_invariant([a, b])
        assert any("coexists" in problem for problem in problems)

    def test_many_sharers_are_fine(self):
        controllers = [_FakeController() for _ in range(4)]
        for controller in controllers:
            controller.cache.install(10, CacheState.SHARED)
        assert check_swmr_invariant(controllers) == []

    def test_exclusive_counts_as_a_writer(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.EXCLUSIVE)
        b.cache.install(10, CacheState.SHARED)
        problems = check_swmr_invariant([a, b])
        assert any("coexists" in problem for problem in problems)

    def test_owned_copy_with_sharers_is_fine(self):
        a, b, c = (_FakeController() for _ in range(3))
        a.cache.install(10, CacheState.OWNED)
        b.cache.install(10, CacheState.SHARED)
        c.cache.install(10, CacheState.SHARED)
        assert check_swmr_invariant([a, b, c]) == []

    def test_two_owned_copies_flagged(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.OWNED)
        b.cache.install(10, CacheState.OWNED)
        problems = check_swmr_invariant([a, b])
        assert any("multiple owned copies" in problem for problem in problems)

    def test_owned_copy_coexisting_with_writer_flagged(self):
        a, b = _FakeController(), _FakeController()
        a.cache.install(10, CacheState.MODIFIED)
        b.cache.install(10, CacheState.OWNED)
        problems = check_swmr_invariant([a, b])
        assert any("coexists" in problem for problem in problems)


class TestStoreBuffer:
    def test_drains_in_fifo_order(self):
        buffer = StoreBuffer()
        buffer.push(1, 10)
        buffer.push(2, 20)
        buffer.push(1, 30)
        assert buffer.head() == (1, 10)
        assert buffer.pop() == (1, 10)
        assert buffer.pop() == (2, 20)
        assert buffer.pop() == (1, 30)
        assert not buffer

    def test_forward_returns_the_youngest_match(self):
        buffer = StoreBuffer()
        buffer.push(1, 10)
        buffer.push(2, 20)
        buffer.push(1, 30)
        assert buffer.forward(1) == 30
        assert buffer.forward(2) == 20
        assert buffer.forward(3) is None

    def test_push_when_full_overflows(self):
        buffer = StoreBuffer(capacity=2)
        buffer.push(1, 10)
        buffer.push(2, 20)
        assert buffer.full
        with pytest.raises(OverflowError):
            buffer.push(3, 30)

    def test_len_bool_and_full_track_occupancy(self):
        buffer = StoreBuffer(capacity=3)
        assert len(buffer) == 0
        assert not buffer
        assert not buffer.full
        buffer.push(1, 10)
        assert len(buffer) == 1
        assert buffer
        buffer.push(2, 20)
        buffer.push(3, 30)
        assert buffer.full
        buffer.pop()
        assert not buffer.full
        assert len(buffer) == 2

    def test_capacity_defaults_to_the_processor_constant(self):
        assert StoreBuffer().capacity == STORE_BUFFER_CAPACITY

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ValueError):
            StoreBuffer(capacity=0)


class TestStoreBufferDifferential:
    """TSO store buffer vs a flat-memory SC oracle (single core).

    With one core, TSO is indistinguishable from SC: a load must see the
    youngest program-order store, whether it is still buffered (forwarded)
    or already drained.  The differential drives the value-level buffer with
    random store/load/drain sequences and checks it against a plain dict --
    and that whenever the buffer is empty, the drained memory image *is* the
    oracle image.
    """

    def _run(self, ops):
        buffer = StoreBuffer()
        committed = {}  # what the memory system has seen (drained stores)
        sc_mem = {}  # the SC oracle: every store visible immediately
        counter = 0
        for kind, block in ops:
            if kind == "S":
                if buffer.full:
                    drained_block, value = buffer.pop()
                    committed[drained_block] = value
                counter += 1
                buffer.push(block, counter)
                sc_mem[block] = counter
            elif kind == "D":
                if buffer:
                    drained_block, value = buffer.pop()
                    committed[drained_block] = value
            else:  # "L"
                forwarded = buffer.forward(block)
                observed = (
                    forwarded
                    if forwarded is not None
                    else committed.get(block, 0)
                )
                assert observed == sc_mem.get(block, 0)
            if not buffer:
                assert committed == sc_mem
        # Drain the tail: the two images must converge.
        while buffer:
            drained_block, value = buffer.pop()
            committed[drained_block] = value
        assert committed == sc_mem

    def test_hypothesis_differential(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            st.lists(
                st.tuples(st.sampled_from("SLD"), st.integers(0, 3)),
                max_size=60,
            )
        )
        def run(ops):
            self._run(ops)

        run()

    def test_differential_on_a_pinned_adversarial_trace(self):
        # Covers forwarding past an older same-block store, a drain
        # interleaved with loads, and a full-buffer auto-drain.
        ops = [("S", 0), ("S", 1), ("L", 0), ("D", 0), ("L", 0), ("S", 0)]
        ops += [("S", 2)] * STORE_BUFFER_CAPACITY + [("L", 2), ("L", 0)]
        self._run(ops)
