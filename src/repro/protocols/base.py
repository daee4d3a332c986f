"""Protocol-independent plumbing shared by all three coherence protocols."""
# repro-lint: hot

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Dict, List, Optional

from repro.memory.block import AddressSpace
from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import AccessType, CacheState
from repro.memory.mshr import MSHRFile
from repro.network.link import TrafficAccountant
from repro.network.message import MessagePool
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel


class ProtocolName(str, Enum):
    """The evaluated protocols.

    The first three are the paper's protocols (Section 4.2, all MSI); the
    last two extend the matrix with an E-state directory variant and an
    owned-sharing snooping variant.
    """

    TS_SNOOP = "TS-Snoop"
    DIR_CLASSIC = "DirClassic"
    DIR_OPT = "DirOpt"
    MESI_DIR = "MESIDir"
    MOESI_SNOOP = "MOESISnoop"


class MissSource(str, Enum):
    """Where the data for a miss was ultimately sourced from."""

    MEMORY = "memory"
    #: cache-to-cache transfer (a "3-hop" miss for directories, a "dirty
    #: miss" for snooping)
    CACHE = "cache"
    #: permission-only transition (no data movement)
    UPGRADE = "upgrade"


@dataclass(frozen=True)
class ProtocolTiming:
    """Controller occupancy / access latencies (Table 2).

    ``cache_access_ns`` is the time for a cache to provide data to the
    network (``Dcache``); ``memory_access_ns`` is the combined directory and
    memory access time (``Dmem``); ``l2_hit_ns`` is the latency of a level-two
    hit as seen by the blocking processor (the paper folds this into its
    perfect-L1 processor abstraction; it is applied identically to every
    protocol); ``nack_retry_ns`` is the delay a DirClassic requester waits
    before re-issuing a NACKed request.
    """

    cache_access_ns: int = 25
    memory_access_ns: int = 80
    l2_hit_ns: int = 10
    nack_retry_ns: int = 20

    def __post_init__(self) -> None:
        for name in (
            "cache_access_ns",
            "memory_access_ns",
            "l2_hit_ns",
            "nack_retry_ns",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


@dataclass(slots=True)
class MissRecord:
    """One completed miss, as recorded for Table 3 / Figure 3 statistics."""

    node: int
    block: int
    access: AccessType
    issue_time: int
    complete_time: int
    source: MissSource
    retries: int = 0

    @property
    def latency(self) -> int:
        return self.complete_time - self.issue_time

    @property
    def is_cache_to_cache(self) -> bool:
        return self.source is MissSource.CACHE


DoneCallback = Callable[[], None]


@dataclass
class ProtocolBuildContext:
    """Everything a protocol needs to instantiate its per-node controllers.

    Assembled by :class:`repro.system.builder.SystemBuilder`; each protocol's
    ``build`` method consumes one and returns the per-node cache controllers
    that processors talk to.
    """

    sim: Simulator
    topology: Topology
    address_space: AddressSpace
    caches: List[PackedCacheArray]
    protocol_timing: ProtocolTiming
    network_timing: NetworkTiming
    accountant: TrafficAccountant
    perturbation: Optional[PerturbationModel] = None
    checker: Optional[Any] = None
    #: Free-list of Message shells shared by every controller of the build;
    #: disabled pools degrade to plain construction (the reference path).
    message_pool: MessagePool = field(default_factory=MessagePool)
    options: Dict[str, Any] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return self.topology.num_endpoints


class CoherenceProtocol(ABC):
    """Factory interface implemented by TS-Snoop, DirClassic and DirOpt."""

    name: ProtocolName

    @abstractmethod
    def build(self, context: ProtocolBuildContext) -> List["CacheControllerBase"]:
        """Create the per-node controllers (and the networks they use)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name.value}>"


class CacheControllerBase(Component, ABC):
    """Per-node level-two cache controller.

    The processor calls :meth:`access`; the controller either reports a hit
    after ``l2_hit_ns`` or starts a coherence transaction and invokes the
    callback when the miss completes.  Subclasses implement the actual
    protocol in :meth:`_start_miss` and the message handlers they register
    with their networks.

    The processor model is blocking (at most one outstanding demand access
    per processor), matching the paper's processor assumptions; writebacks
    proceed in the background.
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        address_space: AddressSpace,
        cache: PackedCacheArray,
        timing: ProtocolTiming,
        name: str,
        pool: Optional[MessagePool] = None,
    ) -> None:
        super().__init__(sim, name)
        self.node = node
        self.address_space = address_space
        self.cache = cache
        self.timing = timing
        self.pool = pool if pool is not None else MessagePool()
        self.mshrs = MSHRFile(capacity=32, name=f"{name}.mshr")
        # Hot-path pre-binds: MSHR lookup, the cache-state probe and
        # home-node interleaving run on every snooped/forwarded message.
        self._mshr_get = self.mshrs.get_entry
        self._home_of = address_space.home_of
        self._state_of = cache.state_of
        self.miss_records: List[MissRecord] = []
        #: optional CoherenceChecker; concrete protocols overwrite this with
        #: the checker handed to them by the system builder.
        self.checker = None
        #: True when the protocol grants clean-exclusive (E) lines; stores
        #: that hit in E then upgrade to M silently, with no transaction.
        self._has_exclusive_state = False
        #: optional ``(block, version) -> None`` hook invoked when a load
        #: completes (hit or fill), used by the litmus harness to observe
        #: which write each load returned.
        self.load_observer: Optional[Callable[[int, int], None]] = None
        # Pre-bound stat handles for the per-access fast path.
        self._ctr_misses = self.stats.counter("misses")
        self._ctr_write_misses = self.stats.counter("write_misses")
        self._ctr_read_misses = self.stats.counter("read_misses")
        self._ctr_hits = self.stats.counter("hits")
        self._ctr_c2c_misses = self.stats.counter("cache_to_cache_misses")
        self._ctr_memory_misses = self.stats.counter("memory_misses")
        self._hist_miss_latency = self.stats.histogram("miss_latency", bin_width=20)

    # ------------------------------------------------------------ processor
    def access(self, block: int, access_type: AccessType, done: DoneCallback) -> None:
        """Handle one processor reference to ``block``."""
        # _is_hit is inlined here: this runs once per reference.
        state = self._state_of(block)
        if (
            state in (CacheState.MODIFIED, CacheState.EXCLUSIVE)
            if access_type.needs_write_permission
            else state is not CacheState.INVALID
        ):
            self._complete_hit(block, access_type, done)
            return
        self._ctr_misses.value += 1
        if access_type.needs_write_permission:
            self._ctr_write_misses.value += 1
        else:
            self._ctr_read_misses.value += 1
        self._start_miss(block, access_type, done)

    def _complete_hit(
        self, block: int, access_type: AccessType, done: DoneCallback
    ) -> None:
        self._ctr_hits.value += 1
        self.cache.touch(block)
        if access_type.needs_write_permission:
            if (
                self._has_exclusive_state
                and self._state_of(block) is CacheState.EXCLUSIVE
            ):
                # MESI silent E->M upgrade: exclusivity was granted at fill
                # time, so the first store needs no coherence transaction.
                self.cache.set_state(block, CacheState.MODIFIED)
            new_version = self.cache.version_of(block) + 1
            self.cache.write(block, new_version)
            if self.checker is not None:
                self.checker.record_write(self.node, block, new_version, self.now)
        elif self.load_observer is not None:
            self.load_observer(block, self.cache.version_of(block))
        # Hits are the most frequent event in the simulator.
        self.sim.schedule(self.timing.l2_hit_ns, done)

    # -------------------------------------------------------------- protocol
    @abstractmethod
    def _start_miss(
        self, block: int, access_type: AccessType, done: DoneCallback
    ) -> None:
        """Issue the coherence transaction(s) needed to satisfy a miss."""

    # ------------------------------------------------------------ accounting
    def record_miss(self, record: MissRecord) -> None:
        self.miss_records.append(record)
        self._hist_miss_latency.record(record.complete_time - record.issue_time)
        if record.source is MissSource.CACHE:
            self._ctr_c2c_misses.value += 1
        elif record.source is MissSource.MEMORY:
            self._ctr_memory_misses.value += 1

    # ------------------------------------------------------------ inspection
    @property
    def total_misses(self) -> int:
        # repro-lint: disable=HOT003 -- cold inspection property, read once
        # per run when results are collected.
        return int(self.stats.counter("misses").value)

    @property
    def cache_to_cache_misses(self) -> int:
        # repro-lint: disable=HOT003 -- cold inspection property, read once
        # per run when results are collected.
        return int(self.stats.counter("cache_to_cache_misses").value)

    def state_of(self, block: int) -> CacheState:
        return self.cache.state_of(block)
