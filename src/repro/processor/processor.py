"""The blocking processor model (Section 4.3, "Processor Model").

The paper approximates "a processor core and level one caches that execute 4
billion instructions per second and generate blocking requests to the level
two data cache".  We do exactly the same: each processor executes
instructions at a fixed rate between its level-two references and blocks on
every reference until the cache controller reports completion.

The issue loop reads references through a *puller* over the stream's packed
columns, which yields plain ints and materialises no per-reference objects.
Hand-written ``Reference`` lists and iterators (tests, traces) are packed
once at construction.

``ProcessorConfig.consistency`` selects the memory model:

* ``"sc"`` (default) -- the blocking core above, bit-identical to the
  pre-matrix simulator;
* ``"tso"`` -- stores retire into a per-core FIFO
  :class:`~repro.processor.consistency.StoreBuffer` and drain to the cache
  in order after a rest delay, loads forward from the youngest buffered
  store to the same block (and otherwise still block), and atomics act as
  fences that wait for the buffer to drain.  This is the store->load
  reordering SPARC/x86 TSO permits.
"""
# repro-lint: hot

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from repro.memory.coherence import ACCESS_FROM_CODE, AccessType
from repro.processor.consistency import (
    CONSISTENCY_MODELS,
    STORE_BUFFER_CAPACITY,
    TSO_DRAIN_DELAY_NS,
    StoreBuffer,
)
from repro.protocols.base import CacheControllerBase
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.workloads.generator import PackedReferenceStream, Reference


@dataclass(frozen=True)
class ProcessorConfig:
    """Per-processor execution parameters.

    ``instructions_per_ns`` is 4 in the paper (e.g. a 1 GHz, IPC-4 core or a
    2 GHz, IPC-2 core with a perfect memory system above the L2).
    ``consistency`` is the memory model ("sc" or "tso", see the module
    docstring); SC remains the default.
    """

    instructions_per_ns: int = 4
    consistency: str = "sc"

    def __post_init__(self) -> None:
        if self.instructions_per_ns <= 0:
            raise ValueError("instructions_per_ns must be positive")
        if self.consistency not in CONSISTENCY_MODELS:
            raise ValueError(
                f"unknown consistency model {self.consistency!r}; "
                f"choose one of {CONSISTENCY_MODELS}"
            )

    def compute_time(self, instructions: int) -> int:
        """Nanoseconds needed to execute ``instructions`` between references."""
        if instructions < 0:
            raise ValueError("instructions must be non-negative")
        return (instructions + self.instructions_per_ns - 1) // self.instructions_per_ns


class Processor(Component):
    """An in-order core that blocks on every L2 reference."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        controller: CacheControllerBase,
        stream: Iterable[Reference],
        config: Optional[ProcessorConfig] = None,
        on_finish: Optional[Callable[["Processor"], None]] = None,
        on_phase: Optional[Callable[["Processor"], None]] = None,
        phase_boundary: Optional[int] = None,
    ) -> None:
        super().__init__(sim, f"cpu{node}")
        self.node = node
        self.controller = controller
        self.config = config or ProcessorConfig()
        self._pull = self._make_puller(stream)
        self._ipns = self.config.instructions_per_ns
        self._on_finish = on_finish
        self._on_phase = on_phase
        self._phase_boundary = phase_boundary
        self.instructions_executed = 0
        self.references_issued = 0
        self.finished = False
        self.finish_time: Optional[int] = None
        self._pending_block = 0
        self._pending_access: Optional[AccessType] = None
        self._started = False
        self._stalled_at_phase = False
        self._phase_passed = False
        self.reset_counts()
        # The consistency model is chosen once here; the SC issue loop is
        # untouched (and bit-identical to the pre-TSO simulator) because the
        # model only swaps which advance callback drives the core.
        if self.config.consistency == "tso":
            self._advance: Callable[[], None] = self._next_reference_tso
            self.store_buffer: Optional[StoreBuffer] = StoreBuffer(
                STORE_BUFFER_CAPACITY
            )
            self._drain_delay = TSO_DRAIN_DELAY_NS
            self._draining = False
            self._retry_pending = False
            self._finish_after_drain = False
        else:
            self._advance = self._next_reference
            self.store_buffer = None

    def reset_counts(self) -> None:
        """Zero the reference counts (the warm-up / measurement boundary).

        The store-buffer counts stay zero under SC.
        """
        self.reads = 0
        self.writes = 0
        self.store_buffer_forwards = 0
        self.store_buffer_stalls = 0

    @staticmethod
    def _make_puller(stream) -> Callable[[], Optional[tuple]]:
        """A zero-allocation-per-call reader over the stream's packed columns.

        Returns ``(block, access_type, think_instructions)`` tuples and then
        ``None`` forever once the stream is exhausted.  A stream that is not
        already packed (a hand-written ``List[Reference]`` or an iterator)
        is packed once here.
        """
        if not isinstance(stream, PackedReferenceStream):
            stream = PackedReferenceStream.from_references(stream)
        blocks, codes, think = stream.columns()
        decode = ACCESS_FROM_CODE
        length = len(blocks)
        cursor = 0

        # repro-lint: disable=HOT001 -- one closure per processor at
        # construction; the per-call pull path allocates nothing.
        def pull() -> Optional[tuple]:
            nonlocal cursor
            i = cursor
            if i >= length:
                return None
            cursor = i + 1
            return blocks[i], decode[codes[i]], think[i]

        return pull

    # ------------------------------------------------------------------ run
    def start(self) -> None:
        """Begin executing the reference stream."""
        if self._started:
            raise RuntimeError(f"{self.name} started twice")
        self._started = True
        self.schedule(0, self._advance)

    def resume(self) -> None:
        """Continue past a phase barrier (see ``phase_boundary``)."""
        if not self._stalled_at_phase:
            return
        self._stalled_at_phase = False
        self._phase_passed = True
        self.schedule(0, self._advance)

    def _next_reference(self) -> None:
        # Guard order matters: after the warm-up barrier _phase_passed is
        # True, so the measured phase pays one boolean test per reference.
        if (
            not self._phase_passed
            and self._phase_boundary is not None
            and self.references_issued >= self._phase_boundary
            and not self._stalled_at_phase
        ):
            # Warm-up complete: wait here until the harness resumes us so all
            # processors enter the measured phase together.
            self._stalled_at_phase = True
            if self._on_phase is not None:
                self._on_phase(self)
            return
        pulled = self._pull()
        if pulled is None:
            self._finish()
            return
        block, access_type, think = pulled
        self.instructions_executed += think
        ipns = self._ipns
        think_ns = (think + ipns - 1) // ipns
        # The blocking processor has at most one reference in flight, so the
        # pending reference rides on the instance instead of a per-reference
        # closure.
        self._pending_block = block
        self._pending_access = access_type
        self.sim.schedule(think_ns, self._issue_pending)

    def _issue_pending(self) -> None:
        self._issue(self._pending_block, self._pending_access)

    def _issue(self, block: int, access_type: AccessType) -> None:
        self.references_issued += 1
        if access_type.needs_write_permission:
            self.writes += 1
        else:
            self.reads += 1
        self.controller.access(block, access_type, self._next_reference)

    # ------------------------------------------------------------------ tso
    def _next_reference_tso(self) -> None:
        if (
            not self._phase_passed
            and self._phase_boundary is not None
            and self.references_issued >= self._phase_boundary
            and not self._stalled_at_phase
        ):
            self._stalled_at_phase = True
            if self._on_phase is not None:
                self._on_phase(self)
            return
        pulled = self._pull()
        if pulled is None:
            if self.store_buffer or self._draining:
                # Drain every buffered store before declaring the core done
                # so quiescence (and the invariant checkers) see no
                # in-flight work.
                self._finish_after_drain = True
            else:
                self._finish()
            return
        block, access_type, think = pulled
        self.instructions_executed += think
        ipns = self._ipns
        think_ns = (think + ipns - 1) // ipns
        self._pending_block = block
        self._pending_access = access_type
        self.sim.schedule(think_ns, self._issue_pending_tso)

    def _count_issue_tso(self, access_type: AccessType) -> None:
        self.references_issued += 1
        if access_type.needs_write_permission:
            self.writes += 1
        else:
            self.reads += 1

    def _issue_pending_tso(self) -> None:
        block = self._pending_block
        access_type = self._pending_access
        buffer = self.store_buffer
        if access_type is AccessType.STORE:
            if buffer.full:
                # Wait for the head drain to complete, then retry this store.
                self.store_buffer_stalls += 1
                self._retry_pending = True
                return
            self._count_issue_tso(access_type)
            buffer.push(block, self.now + self._drain_delay)
            if not self._draining:
                self._start_drain()
            # The store retires into the buffer and the core moves straight
            # on: this is the store->load reordering TSO permits.
            self._next_reference_tso()
        elif access_type is AccessType.ATOMIC:
            if buffer or self._draining:
                # Atomics are fences: the buffer must drain completely
                # before the read-modify-write issues (and blocks).
                self._retry_pending = True
                return
            self._count_issue_tso(access_type)
            self.controller.access(block, access_type, self._advance)
        else:
            if buffer.forward(block) is not None:
                # Same-address forwarding: the youngest buffered store
                # satisfies the load without touching the coherence fabric.
                self._count_issue_tso(access_type)
                self.store_buffer_forwards += 1
                self.sim.schedule(self.controller.timing.l2_hit_ns, self._advance)
            else:
                self._count_issue_tso(access_type)
                self.controller.access(block, access_type, self._advance)

    def _start_drain(self) -> None:
        self._draining = True
        _block, ready = self.store_buffer.head()
        self.sim.schedule(max(0, ready - self.now), self._drain_head)

    def _drain_head(self) -> None:
        block, _ready = self.store_buffer.head()
        # The head entry stays in the buffer until the store completes, so
        # loads to it keep forwarding and a same-block demand access can
        # never collide with the drain in the controller's MSHRs.
        self.controller.access(block, AccessType.STORE, self._drain_done)

    def _drain_done(self) -> None:
        self.store_buffer.pop()
        if self.store_buffer:
            self._start_drain()
        else:
            self._draining = False
        if self._retry_pending:
            self._retry_pending = False
            self._issue_pending_tso()
        elif (
            self._finish_after_drain
            and not self._draining
            and not self.store_buffer
        ):
            self._finish_after_drain = False
            self._finish()

    def _finish(self) -> None:
        self.finished = True
        self.finish_time = self.now
        if self._on_finish is not None:
            self._on_finish(self)

    # ------------------------------------------------------------ inspection
    @property
    def waiting_at_phase_barrier(self) -> bool:
        return self._stalled_at_phase
