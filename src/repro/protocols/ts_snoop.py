"""TS-Snoop: the timestamp snooping MSI protocol (Section 3).

Every coherence transaction (GETS, GETM, PUTM) is broadcast on the timestamp
address network and processed by every cache and memory controller in the
network's logical total order.  The conventional snooping *owned* wired-OR
signal is replaced by one bit per block at memory indicating whether memory
owns the block (the Synapse scheme); there is no E state, so no shared signal
is needed either.

Each node hosts a single :class:`TSSnoopNode` that plays both roles:

* the **cache side** (this node's L2 and processor interface), and
* the **memory side** for the slice of physical memory homed at this node
  (the per-block owner bookkeeping).

The controllers implement optimisation 1 of Section 3 (prefetching data from
DRAM/SRAM as soon as a transaction *arrives*, sending it only once the
transaction is *ordered*), which the ``prefetch`` flag turns off for
ablation studies.  Optimisation 2 (early processing of other processors'
transactions) is not implemented; the paper's evaluation leaves it off too.

The builder gives the analytical network a home resolver, so it runs as a
snoop filter: each node sets its bit in the network's per-block ``interest``
mask when it allocates an MSHR and clears it
(:meth:`TSSnoopNode._drop_interest`) once it holds no MSHR, no
writeback-buffer entry and no valid line for the block.
A node outside that mask would ignore a remote transaction anyway, so the
network skips the call and results are unchanged.

Delayed data responses (memory data, cache-to-cache data, writeback data)
are fire-and-forget sends, so they ride the kernel's per-tick batched
dispatch: an ordered broadcast that triggers responses from many nodes at
one instant costs O(distinct send ticks) kernel events, not O(messages).
"""
# repro-lint: hot

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.analytical_ordering import AnalyticalTimestampNetwork
from repro.core.timestamp_network import (
    AddressNetworkInterface,
    OrderedDelivery,
    TimestampAddressNetwork,
)
from repro.memory.block import AddressSpace
from repro.memory.cache import AnyCacheArray
from repro.memory.coherence import AccessType, CacheState
from repro.network.data_network import DataNetwork
from repro.network.message import Message, MessageKind, MessagePool
from repro.protocols.base import (
    CacheControllerBase,
    CoherenceProtocol,
    DoneCallback,
    MissRecord,
    MissSource,
    ProtocolBuildContext,
    ProtocolName,
    ProtocolTiming,
)
from repro.sim.kernel import Simulator


@dataclass
class _HomeBlockState:
    """Memory-side bookkeeping for one block homed at this node.

    ``owner`` is ``None`` when memory owns the block (the paper's one owner
    bit set); otherwise it names the cache that owns it.  ``awaiting_data``
    is set while memory is the logical owner but the owner's writeback data
    is still in flight; responses issued in that window are deferred until
    the data arrives.
    """

    owner: Optional[int] = None
    awaiting_data: bool = False
    data_ready_time: int = 0
    version: int = 0
    deferred: List[Tuple[int, bool, int]] = field(default_factory=list)
    # deferred entries: (requester, exclusive, earliest_send_time)
    #: a writeback's data arrived from this (still registered) owner before
    #: the ownership transfer itself was ordered -- eviction data can race
    #: ahead of its PUTM broadcast.
    early_data_from: Optional[int] = None


@dataclass
class _WritebackEntry:
    """A victim block awaiting its PUTM to be ordered (still the owner)."""

    version: int


class TSSnoopNode(CacheControllerBase):
    """Combined cache-side / memory-side controller for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        address_space: AddressSpace,
        cache: AnyCacheArray,
        timing: ProtocolTiming,
        address_network: AddressNetworkInterface,
        data_network: DataNetwork,
        prefetch: bool = True,
        owned_state: bool = False,
        checker: Optional[Any] = None,
        pool: Optional[MessagePool] = None,
    ) -> None:
        super().__init__(
            sim,
            node,
            address_space,
            cache,
            timing,
            name=f"ts-snoop.n{node}",
            pool=pool,
        )
        self.address_network = address_network
        self.data_network = data_network
        #: Pre-bound send: delayed data responses ride the per-tick dispatch
        #: batches with the message as the payload (no per-response closure,
        #: no kernel event per message).
        self._send_on_data = data_network.send
        self._sched_batched = sim.schedule_batched
        self.prefetch = prefetch
        #: MOESI: a dirty owner answering a GETS downgrades to O and keeps
        #: supplying data (no sharing writeback); memory's owner bit stays
        #: pointed at the O holder until it upgrades or evicts.
        self._owned_state = owned_state
        self.checker = checker
        self.home_blocks: Dict[int, _HomeBlockState] = {}
        self.writeback_buffer: Dict[int, _WritebackEntry] = {}
        #: The analytical network's snoop-filter map; None on the detailed
        #: network, which delivers everything and keeps no map.
        self._interest: Optional[Dict[int, int]] = getattr(
            address_network, "interest", None
        )
        self._interest_bit = 1 << node
        address_network.attach(node, self._on_ordered)
        data_network.attach(node, self._on_data_message)
        # Pre-bound counter handles for the protocol hot path.
        self._ctr_address_broadcasts = self.stats.counter("address_broadcasts")
        self._ctr_cache_data_responses = self.stats.counter("cache_data_responses")
        self._ctr_dirty_evictions = self.stats.counter("dirty_evictions")
        self._ctr_invalidations_observed = self.stats.counter(
            "invalidations_observed"
        )
        self._ctr_memory_data_responses = self.stats.counter(
            "memory_data_responses"
        )
        self._ctr_memory_deferred_responses = self.stats.counter(
            "memory_deferred_responses"
        )
        self._ctr_orphan_data = self.stats.counter("orphan_data")
        self._ctr_owed_responses = self.stats.counter("owed_responses")
        self._ctr_stale_putm = self.stats.counter("stale_putm")
        self._ctr_writeback_buffer_responses = self.stats.counter(
            "writeback_buffer_responses"
        )
        self._ctr_writeback_data_received = self.stats.counter(
            "writeback_data_received"
        )
        self._ctr_writebacks_sent = self.stats.counter("writebacks_sent")

    # ------------------------------------------------------------------ miss
    def _start_miss(
        self, block: int, access_type: AccessType, done: DoneCallback
    ) -> None:
        if block in self.mshrs:
            raise RuntimeError(
                f"{self.name}: blocking processor issued a second miss to "
                f"block {block} while one is outstanding"
            )
        kind = (
            MessageKind.GETM
            if access_type.needs_write_permission
            else MessageKind.GETS
        )
        entry = self.mshrs.allocate(block, kind.label, self.now, self.node)
        entry.done = done
        entry.access_type = access_type
        interest = self._interest
        if interest is not None:
            interest[block] = interest.get(block, 0) | self._interest_bit
        # Broadcast shells are owned by the address network, which releases
        # them once the last endpoint has processed the ordered delivery.
        request = self.pool.acquire(kind, self.node, None, block)
        self.address_network.broadcast(request)
        self._ctr_address_broadcasts.increment()

    # ------------------------------------------------- ordered address stream
    def _on_ordered(self, delivery: OrderedDelivery) -> None:
        # The cache-side dispatch is inlined: this handler runs once per
        # endpoint per broadcast, the widest fan-out in the simulator.
        message = delivery.message
        node = self.node
        home = delivery.home
        if home < 0:
            # The detailed network does not resolve homes; do it here.
            home = self._home_of(message.block)
        if home == node:
            self._memory_side(delivery)
        if message.src == node:
            self._own_transaction_ordered(delivery)
            return
        kind = message.kind
        if kind is MessageKind.PUTM:
            return  # another node's writeback: no action
        exclusive = kind is MessageKind.GETM
        block = message.block
        requester = message.src

        # Snoop of a remote request (inlined for the same reason).  A miss
        # of our own to the same block that has already been ordered makes
        # us the logical owner/holder even though the data is still in
        # flight; fold the remote request into the MSHR.
        entry = self._mshr_get(block)
        if entry is not None and entry.logical_state is not None:
            self._snoop_against_mshr(entry, requester, exclusive)
            return

        if block in self.writeback_buffer:
            self._respond_from_writeback_buffer(delivery, requester, exclusive)
            return

        state = self._state_of(block)
        if state is CacheState.MODIFIED or (
            self._owned_state and state is CacheState.OWNED
        ):
            self._respond_from_cache(delivery, requester, exclusive)
        elif state is CacheState.SHARED and exclusive:
            self.cache.set_state(block, CacheState.INVALID)
            self._ctr_invalidations_observed.increment()
            self._drop_interest(block)

    def _drop_interest(self, block: int) -> None:
        """Clear this node's snoop-filter bit once it holds nothing for
        ``block``: no MSHR entry, no writeback-buffer entry, no valid line."""
        interest = self._interest
        if (
            interest is None
            or self._mshr_get(block) is not None
            or block in self.writeback_buffer
            or self._state_of(block) is not CacheState.INVALID
        ):
            return
        remaining = interest.get(block, 0) & ~self._interest_bit
        if remaining:
            interest[block] = remaining
        else:
            interest.pop(block, None)

    # ------------------------------------------------------------ memory side
    def _memory_side(self, delivery: OrderedDelivery) -> None:
        message = delivery.message
        block = message.block
        state = self.home_blocks.get(block)
        if state is None:
            state = self.home_blocks[block] = _HomeBlockState()
        kind = message.kind

        if kind is MessageKind.GETS:
            if state.owner is None:
                self._memory_respond(delivery, state, exclusive=False)
            elif self._owned_state:
                # MOESI: the owning cache downgrades to O and keeps the
                # owner role; no writeback comes and the owner bit is
                # unchanged, so later requests still route to it.
                pass
            else:
                # The owning cache responds and (per MSI) writes the block
                # back, so memory becomes the owner again once that data
                # lands (unless an eviction's data already raced here).
                previous_owner = state.owner
                state.owner = None
                state.awaiting_data = state.early_data_from != previous_owner
                state.early_data_from = None
        elif kind is MessageKind.GETM:
            if state.owner is None:
                self._memory_respond(delivery, state, exclusive=True)
            state.owner = message.src
            state.early_data_from = None
        elif kind is MessageKind.PUTM:
            if state.owner == message.src:
                state.owner = None
                state.awaiting_data = state.early_data_from != message.src
                state.early_data_from = None
            else:
                # Stale writeback: ownership already moved on (a request was
                # ordered ahead of the PUTM).  Ignore it.
                self._ctr_stale_putm.increment()

    def _memory_respond(
        self, delivery: OrderedDelivery, state: _HomeBlockState, exclusive: bool
    ) -> None:
        """Send data from memory for an ordered GETS/GETM."""
        message = delivery.message
        requester = message.src
        if self.prefetch:
            ready = max(
                delivery.arrival_time + self.timing.memory_access_ns,
                delivery.ordered_time,
            )
        else:
            ready = delivery.ordered_time + self.timing.memory_access_ns
        if state.awaiting_data:
            # The writeback carrying the current data has not arrived yet;
            # remember the response and send it when it does.
            state.deferred.append((requester, exclusive, ready))
            self._ctr_memory_deferred_responses.increment()
            return
        ready = max(ready, state.data_ready_time)
        self._send_memory_data(
            requester, message.block, state.version, exclusive, ready
        )

    def _send_memory_data(
        self,
        requester: int,
        block: int,
        version: int,
        exclusive: bool,
        send_time: int,
    ) -> None:
        kind = MessageKind.DATA_EXCLUSIVE if exclusive else MessageKind.DATA
        data = self.pool.acquire(
            kind, self.node, requester, block, version=version, from_cache=False
        )
        self._sched_batched(max(0, send_time - self.now), self._send_on_data, data)
        self._ctr_memory_data_responses.increment()

    def _on_writeback_data(self, message: Message) -> None:
        """WRITEBACK_DATA arrived at this (home) memory controller."""
        block = message.block
        state = self.home_blocks.get(block)
        if state is None:
            state = self.home_blocks[block] = _HomeBlockState()
        self._ctr_writeback_data_received.increment()
        if not state.awaiting_data and state.owner is not None:
            if state.owner == message.src:
                # Eviction data racing ahead of its PUTM: remember that the
                # current owner's data is already here so the transfer, once
                # ordered, does not wait for a second copy.
                state.early_data_from = message.src
                state.data_ready_time = self.now
                state.version = max(state.version, message.payload.get("version", 0))
            # Otherwise the data is stale (ownership already moved on).
            return
        state.awaiting_data = False
        state.data_ready_time = self.now
        state.version = max(state.version, message.payload.get("version", 0))
        deferred, state.deferred = state.deferred, []
        for requester, exclusive, earliest in deferred:
            self._send_memory_data(
                requester,
                block,
                state.version,
                exclusive,
                max(earliest, self.now),
            )

    # ------------------------------------------------------------- cache side
    def _snoop_against_mshr(self, entry, requester: int, exclusive: bool) -> None:
        """Remote request ordered after our own, before our data arrived."""
        logical = entry.logical_state
        if logical is CacheState.MODIFIED:
            if entry.owed is None:
                entry.owed = [(requester, exclusive)]
            else:
                entry.owed.append((requester, exclusive))
            if exclusive:
                entry.logical_state = CacheState.INVALID
            elif self._owned_state:
                # MOESI: we stay the logical owner in O and keep answering
                # requesters ordered behind us (possibly several).
                entry.logical_state = CacheState.OWNED
            else:
                entry.logical_state = CacheState.SHARED
            self._ctr_owed_responses.increment()
        elif self._owned_state and logical is CacheState.OWNED:
            if entry.owed is None:
                entry.owed = [(requester, exclusive)]
            else:
                entry.owed.append((requester, exclusive))
            if exclusive:
                entry.logical_state = CacheState.INVALID
            self._ctr_owed_responses.increment()
        elif logical is CacheState.SHARED and exclusive:
            entry.logical_state = CacheState.INVALID
            self._ctr_invalidations_observed.increment()

    def _respond_from_cache(
        self, delivery: OrderedDelivery, requester: int, exclusive: bool
    ) -> None:
        block = delivery.message.block
        version = self.cache.version_of(block)
        send_time = self._cache_response_time(delivery)
        self._send_cache_data(requester, block, version, send_time)
        if exclusive:
            self.cache.set_state(block, CacheState.INVALID)
            self._drop_interest(block)
        elif self._owned_state:
            # MOESI: downgrade to O (dirty is preserved) and keep supplying
            # data; no writeback, memory's owner bit still points at us.
            self.cache.set_state(block, CacheState.OWNED)
        else:
            # MSI: the owner downgrades to S and memory becomes the owner
            # again, which requires writing the dirty block back (this is the
            # second data message the paper's Section 5 analysis mentions).
            self.cache.set_state(block, CacheState.SHARED)
            self._send_writeback_data(block, version, send_time)

    def _respond_from_writeback_buffer(
        self, delivery: OrderedDelivery, requester: int, exclusive: bool
    ) -> None:
        block = delivery.message.block
        if self._owned_state and not exclusive:
            # MOESI: memory's owner bit still points at us until our PUTM is
            # ordered, so the buffered copy must keep answering later GETSs;
            # it is dropped when the PUTM orders (or an exclusive request
            # moves ownership on).
            wb_entry = self.writeback_buffer[block]
        else:
            wb_entry = self.writeback_buffer.pop(block)
            self._drop_interest(block)
        send_time = self._cache_response_time(delivery)
        self._send_cache_data(requester, block, wb_entry.version, send_time)
        self._ctr_writeback_buffer_responses.increment()
        # The WRITEBACK_DATA sent at eviction time is already on its way to
        # memory, so no second copy is needed for the non-exclusive case.

    def _cache_response_time(self, delivery: OrderedDelivery) -> int:
        if self.prefetch:
            return max(
                delivery.arrival_time + self.timing.cache_access_ns,
                delivery.ordered_time,
            )
        return delivery.ordered_time + self.timing.cache_access_ns

    def _send_cache_data(
        self, requester: int, block: int, version: int, send_time: int
    ) -> None:
        data = self.pool.acquire(
            MessageKind.DATA,
            self.node,
            requester,
            block,
            version=version,
            from_cache=True,
        )
        self._sched_batched(max(0, send_time - self.now), self._send_on_data, data)
        self._ctr_cache_data_responses.increment()

    def _send_writeback_data(self, block: int, version: int, send_time: int) -> None:
        home = self._home_of(block)
        writeback = self.pool.acquire(
            MessageKind.WRITEBACK_DATA, self.node, home, block, version=version
        )
        self._sched_batched(
            max(0, send_time - self.now), self._send_on_data, writeback
        )
        self._ctr_writebacks_sent.increment()

    # --------------------------------------------------- own request ordered
    def _own_transaction_ordered(self, delivery: OrderedDelivery) -> None:
        message = delivery.message
        block = message.block
        if message.kind is MessageKind.PUTM:
            # Our writeback reached its place in the total order; ownership
            # has passed to memory (unless a request beat us to it, in which
            # case the buffer entry is already gone).
            self.writeback_buffer.pop(block, None)
            self._drop_interest(block)
            return
        entry = self._mshr_get(block)
        if entry is None:
            return
        entry.ordered = True
        entry.ordered_time = delivery.ordered_time
        if message.kind is MessageKind.GETM:
            entry.logical_state = CacheState.MODIFIED
            if (
                self._owned_state
                and self._state_of(block) is CacheState.OWNED
            ):
                # MOESI upgrade: we already hold the only valid copy in O,
                # so ordering alone grants write permission -- no data
                # message is coming (memory's owner bit names us).
                entry.upgrade = True
                entry.data_received = True
                entry.data_version = self.cache.version_of(block)
        else:
            entry.logical_state = CacheState.SHARED
        self._maybe_complete(block)

    # ------------------------------------------------------------ data plane
    def _on_data_message(self, message: Message) -> None:
        """Delivery callback for every unicast addressed to this node."""
        if message.dst != self.node:
            raise RuntimeError(f"{self.name}: misrouted message {message}")
        if message.kind is MessageKind.WRITEBACK_DATA:
            self._on_writeback_data(message)
            self.pool.release(message)
            return
        entry = self._mshr_get(message.block)
        if entry is None:
            # Data for a miss that no longer exists should not happen in this
            # protocol; count it so tests can assert it never does.
            self._ctr_orphan_data.increment()
            self.pool.release(message)
            return
        entry.data_received = True
        payload = message.payload
        entry.data_version = payload.get("version", 0)
        entry.data_from_cache = payload.get("from_cache", False)
        entry.data_time = self.now
        block = message.block
        self.pool.release(message)
        self._maybe_complete(block)

    # ------------------------------------------------------------ completion
    def _maybe_complete(self, block: int) -> None:
        entry = self._mshr_get(block)
        if entry is None or not entry.ordered or not entry.data_received:
            return
        entry = self.mshrs.release(block)
        access_type: AccessType = entry.access_type
        logical_state: CacheState = entry.logical_state
        version = entry.data_version
        from_cache = entry.data_from_cache
        complete_time = self.sim.now

        if access_type.needs_write_permission:
            version += 1
            if self.checker is not None:
                self.checker.record_write(self.node, block, version, complete_time)
        else:
            if self.checker is not None:
                self.checker.record_read(self.node, block, version, complete_time)
            if self.load_observer is not None:
                self.load_observer(block, version)

        if logical_state is not CacheState.INVALID:
            if (
                access_type.needs_write_permission
                and logical_state is CacheState.MODIFIED
            ):
                install_state = CacheState.MODIFIED
            elif self._owned_state and logical_state is CacheState.OWNED:
                # MOESI: a GETS ordered behind our GETM downgraded us to the
                # logical owner; install dirty O and keep supplying data.
                install_state = CacheState.OWNED
            else:
                install_state = CacheState.SHARED
            eviction = self.cache.install(
                block,
                install_state,
                version=version,
                dirty=install_state
                in (CacheState.MODIFIED, CacheState.OWNED),
            )
            if eviction.needs_writeback:
                self._evict_dirty(eviction.victim_block, eviction.victim_version)
            elif eviction.victim_block is not None:
                self._drop_interest(eviction.victim_block)

        self._settle_owed_responses(entry, block, version)
        self._drop_interest(block)

        record = MissRecord(
            node=self.node,
            block=block,
            access=access_type,
            issue_time=entry.issue_time,
            complete_time=complete_time,
            source=(
                MissSource.UPGRADE
                if entry.upgrade
                else MissSource.CACHE if from_cache else MissSource.MEMORY
            ),
        )
        self.record_miss(record)
        done: DoneCallback = entry.done
        done()

    def _settle_owed_responses(self, entry, block: int, version: int) -> None:
        """Send data owed to requesters ordered behind our own miss."""
        owed: Optional[List[Tuple[int, bool]]] = entry.owed
        if not owed:
            return
        send_time = self.now + self.timing.cache_access_ns
        if self._owned_state:
            # MOESI: as the (logical) owner we answer every requester ordered
            # behind us with data and never write back -- ownership either
            # stays with us (all GETSs) or passes to the last requester (a
            # GETM, which is always the final owed entry since it takes us
            # to logical I and later requests route to the new owner).
            for owed_requester, _owed_exclusive in owed:
                self._send_cache_data(owed_requester, block, version, send_time)
            return
        first_requester, first_exclusive = owed[0]
        self._send_cache_data(first_requester, block, version, send_time)
        if not first_exclusive:
            # We downgraded to S; memory regains ownership via writeback.
            self._send_writeback_data(block, version, send_time)
        # Any further owed responses belong to later owners, not to us: once
        # we have answered the first one, ownership has moved on (to memory
        # for a GETS, to the requester for a GETM), and the protocol routes
        # later requests there.  The ordered-stream bookkeeping above never
        # queues more than one owed response for that reason.
        if len(owed) > 1:
            raise AssertionError(
                f"{self.name}: more than one owed response queued for block "
                f"{block}; the logical-state tracking is inconsistent"
            )

    def _evict_dirty(self, block: int, version: int) -> None:
        """Broadcast a PUTM for a dirty victim and ship its data home."""
        self.writeback_buffer[block] = _WritebackEntry(version=version)
        putm = self.pool.acquire(MessageKind.PUTM, self.node, None, block)
        self.address_network.broadcast(putm)
        self._send_writeback_data(block, version, self.now)
        self._ctr_dirty_evictions.increment()


class TSSnoopProtocol(CoherenceProtocol):
    """Factory for a 16-node TS-Snoop system.

    ``detailed_network=True`` runs the event-accurate token-passing network
    (slow; suitable for microbenchmarks and validation), otherwise the
    closed-form analytical network is used, as for all full workload runs.
    """

    name = ProtocolName.TS_SNOOP

    def __init__(
        self,
        prefetch: bool = True,
        slack: int = 0,
        detailed_network: bool = False,
        owned_state: bool = False,
    ) -> None:
        if slack < 0:
            raise ValueError("slack must be non-negative")
        self.prefetch = prefetch
        self.slack = slack
        self.detailed_network = detailed_network
        self.owned_state = owned_state

    def build(self, context: ProtocolBuildContext) -> List[TSSnoopNode]:
        sim = context.sim
        pool = context.message_pool
        if self.detailed_network:
            # The detailed network keeps broadcast shells alive inside switch
            # buffers with no single release point, so they are simply not
            # pooled there (unicast data messages still are).
            address_network: AddressNetworkInterface = TimestampAddressNetwork(
                sim,
                context.topology,
                context.network_timing,
                accountant=context.accountant,
                default_slack=self.slack,
            )
        else:
            address_network = AnalyticalTimestampNetwork(
                sim,
                context.topology,
                context.network_timing,
                accountant=context.accountant,
                default_slack=self.slack,
                perturbation=context.perturbation,
                message_pool=pool,
                home_resolver=context.address_space.home_of,
            )
        data_network = DataNetwork(
            sim,
            context.topology,
            context.network_timing,
            context.accountant,
            perturbation=context.perturbation,
            name="ts-data-network",
        )
        nodes = []
        for node in range(context.num_nodes):
            nodes.append(
                TSSnoopNode(
                    sim,
                    node,
                    context.address_space,
                    context.caches[node],
                    context.protocol_timing,
                    address_network,
                    data_network,
                    prefetch=self.prefetch,
                    owned_state=self.owned_state,
                    checker=context.checker,
                    pool=pool,
                )
            )
        if isinstance(address_network, TimestampAddressNetwork):
            address_network.start()
        return nodes
