"""Protocol-independent plumbing shared by every coherence protocol."""
# repro-lint: hot

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, List, Optional

from repro.memory.block import AddressSpace
from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import AccessType, CacheState
from repro.memory.mshr import MSHRFile
from repro.network.link import TrafficAccountant
from repro.network.message import MessagePool
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.protocols.timing import ProtocolTiming
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel


class MissSource(str, Enum):
    """Where the data for a miss was ultimately sourced from."""

    MEMORY = "memory"
    #: cache-to-cache transfer (a "3-hop" miss for directories, a "dirty
    #: miss" for snooping)
    CACHE = "cache"
    #: permission-only transition (no data movement)
    UPGRADE = "upgrade"


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

    @property
    def num_nodes(self) -> int:
        return self.topology.num_endpoints


class CoherenceProtocol(ABC):
    """Factory interface of ``TSSnoopProtocol`` and ``DirectoryProtocol``."""

    @abstractmethod
    def build(self, context: ProtocolBuildContext) -> List["CacheControllerBase"]:
        """Create the per-node controllers (and the networks they use)."""


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
        self.reset_counts()

    def reset_counts(self) -> None:
        """Zero every count (the warm-up / measurement boundary).

        These are the counts a :class:`~repro.system.results.RunResult` or a
        test reads.  A protocol that never NACKs or retries (TS-Snoop) keeps
        ``nacks_received`` and ``retries_sent`` at zero.  The four anomaly
        counts record messages that arrive for no outstanding transaction
        or at the wrong controller; the coherence-invariant tests assert
        that they stay zero.
        """
        self.misses = 0
        self.cache_to_cache_misses = 0
        #: Sum of every recorded miss's latency, in ns.
        self.miss_latency_total_ns = 0
        self.dirty_evictions = 0
        self.nacks_received = 0
        self.retries_sent = 0
        self.orphan_data = 0
        self.orphan_inv_ack = 0
        self.unexpected_response = 0
        self.unexpected_transfer = 0

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
        self.misses += 1
        self._start_miss(block, access_type, done)

    def _complete_hit(
        self, block: int, access_type: AccessType, done: DoneCallback
    ) -> None:
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
        latency = record.complete_time - record.issue_time
        if latency < 0:
            raise ValueError(f"{self.name}: negative miss latency {latency}")
        self.miss_records.append(record)
        self.miss_latency_total_ns += latency
        if record.source is MissSource.CACHE:
            self.cache_to_cache_misses += 1

    # ------------------------------------------------------------ inspection
    def state_of(self, block: int) -> CacheState:
        return self.cache.state_of(block)
