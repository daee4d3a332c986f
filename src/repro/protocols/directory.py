"""Directory protocol machinery shared by DirClassic, DirOpt and MESIDir.

The paper's two directory protocols are MSI with a full bit vector of
sharers kept at the home memory controller of each block (Section 4.2).
Requests travel to the home node; the home either answers from memory (two
"hops") or forwards the request to the owning cache, producing the
three-hop transfers whose latency penalty motivates the paper.

The protocols differ only in their :class:`DirectoryPolicy`
(:data:`DIR_CLASSIC`, :data:`DIR_OPT` and :data:`MESI_DIR`):

* **DirClassic** (modelled after the SGI Origin 2000): the home enters a busy
  state while a forwarded request is being resolved and NACKs any request
  that finds the entry busy; the requester retries.  The forwarded-request
  virtual network is unordered.
* **DirOpt**: the home never blocks and never NACKs; it updates the directory
  immediately when it forwards, the forwarded-request network is
  point-to-point ordered, and caches absorb any resulting hazards by
  deferring forwards that arrive for blocks whose fill is still in flight.
* **MESIDir** (beyond the paper): DirOpt plus a clean-exclusive (E) state.

Three virtual networks are used (requests, forwarded requests, responses),
exactly as described in Section 4.2; they all share the physical links for
traffic accounting.

Every delayed directory action -- forwards, invalidation fan-outs, NACKs,
writeback acks, memory data -- is a pre-bound send scheduled with the
message as its payload: an append to the kernel's lane for the send tick,
with no per-message closure.
"""
# repro-lint: hot

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.memory.block import AddressSpace
from repro.memory.cache import PackedCacheArray
from repro.memory.coherence import AccessType, CacheState
from repro.network.message import Message, MessageKind, MessagePool
from repro.network.data_network import DataNetwork
from repro.network.virtual_network import PointToPointOrderedNetwork
from repro.protocols.base import (
    CacheControllerBase,
    CoherenceProtocol,
    DoneCallback,
    MissRecord,
    MissSource,
    ProtocolBuildContext,
)
from repro.protocols.directory_state import (
    DirectoryBank,
    DirectoryEntry,
    DirectoryState,
    iter_sharers,
)
from repro.protocols.timing import ProtocolTiming
from repro.sim.component import Component
from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class DirectoryPolicy:
    """The knobs that distinguish DirClassic, DirOpt and MESIDir."""

    #: prefix of the controllers' component names
    name: str
    nack_when_busy: bool
    ordered_forward_network: bool
    #: old owners confirm ownership transfers to the home so it can leave its
    #: busy state (needed only when busy states exist)
    requires_transfer_ack: bool
    #: MESI: a GETS that finds the block uncached is granted a clean
    #: exclusive (E) copy; the directory reuses MODIFIED for the E owner
    #: (the classic EM ambiguity), so forwards and PUTMs work unchanged.
    has_exclusive_state: bool = False


#: DirClassic (Section 4.2): "DirClassic is modeled after the protocol used
#: in the commercially-deployed SGI Origin 2000.  It assumes unordered
#: virtual networks, and it sometimes nacks (negatively acknowledges)
#: transactions."
DIR_CLASSIC = DirectoryPolicy(
    name="dirclassic",
    nack_when_busy=True,
    ordered_forward_network=False,
    requires_transfer_ack=True,
)

#: DirOpt (Section 4.2): "Recent directory research has sought to reduce or
#: eliminate nacks.  To this end, we developed DirOpt, which uses
#: point-to-point ordering on one virtual network to avoid nacks and avoid
#: all blocking at cache and memory controllers."
DIR_OPT = DirectoryPolicy(
    name="diropt",
    nack_when_busy=False,
    ordered_forward_network=True,
    requires_transfer_ack=False,
)

#: MESIDir (a matrix extension beyond the paper): DirOpt plus clean-exclusive
#: grants.  A GETS that finds its block uncached installs in E, and the first
#: store upgrades E -> M silently.  Clean-E victims still announce their
#: eviction through the PUTM/writeback plane, so the home never forwards
#: requests to a silently dropped copy.
MESI_DIR = DirectoryPolicy(
    name="mesidir",
    nack_when_busy=False,
    ordered_forward_network=True,
    requires_transfer_ack=False,
    has_exclusive_state=True,
)


class DirectoryCacheController(CacheControllerBase):
    """Cache side of the directory protocols (one per node)."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        address_space: AddressSpace,
        cache: PackedCacheArray,
        timing: ProtocolTiming,
        policy: DirectoryPolicy,
        request_network: DataNetwork,
        forward_network: DataNetwork,
        response_network: DataNetwork,
        checker: Optional[Any] = None,
        pool: Optional[MessagePool] = None,
    ) -> None:
        super().__init__(
            sim,
            node,
            address_space,
            cache,
            timing,
            name=f"{policy.name}.cache.n{node}",
            pool=pool,
        )
        self.policy = policy
        self._has_exclusive_state = policy.has_exclusive_state
        self.request_network = request_network
        self.forward_network = forward_network
        self.response_network = response_network
        #: Pre-bound send: delayed responses are scheduled with the message
        #: as the payload (no per-response closure).
        self._send_on_response = response_network.send
        self._schedule = sim.schedule
        self.checker = checker
        #: the home DirectoryMemoryController of this node, linked by the
        #: protocol factory so invariant checkers can reach the directory
        #: slices from the controllers the builder exposes.
        self.memory_controller = None
        #: dirty blocks whose PUTM/writeback has not been acknowledged yet
        self.writeback_buffer: Dict[int, int] = {}
        forward_network.attach(node, self._on_forward)
        response_network.attach(node, self._on_response)

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
        entry.req_kind = kind
        self._send_request(block, kind)

    def _send_request(self, block: int, kind: MessageKind) -> None:
        home = self._home_of(block)
        request = self.pool.acquire(kind, self.node, home, block)
        self.request_network.send(request)

    # -------------------------------------------------------------- forwards
    def _on_forward(self, message: Message) -> None:
        """FORWARD_GETS / FORWARD_GETM / INVALIDATE addressed to this cache."""
        block = message.block
        if message.kind is MessageKind.INVALIDATE:
            self._on_invalidate(message)
            return
        requester = message.payload["requester"]
        exclusive = message.kind is MessageKind.FORWARD_GETM

        # A forward that finds the block in our writeback buffer refers to the
        # ownership we gave up when we evicted it; answer from the buffer so
        # neither we nor the home deadlocks waiting on the other.
        if block in self.writeback_buffer:
            version = self.writeback_buffer[block]
            self._service_forward(
                block, requester, exclusive, version, from_writeback_buffer=True
            )
            self.pool.release(message)
            return

        entry = self._mshr_get(block)
        if entry is not None and requester != self.node:
            # Our own fill for this block is still in flight; we are (or will
            # become) the owner the directory believes us to be.  Defer the
            # forward and service it right after the fill completes.  The
            # message stays alive in the MSHR; it is released when the
            # deferred re-dispatch consumes it.
            if entry.deferred_forwards is None:
                entry.deferred_forwards = [message]
            else:
                entry.deferred_forwards.append(message)
            return

        if entry is None and self.cache.state_of(block) in (
            CacheState.MODIFIED,
            CacheState.EXCLUSIVE,
        ):
            self._service_forward(
                block, requester, exclusive, self.cache.version_of(block)
            )
            self.pool.release(message)
            return

        # We no longer own the block (the writeback raced ahead of this
        # forward and has already been acknowledged), or the directory
        # forwarded our own request back to us after we lost the data.
        # NACK the requester, who will retry at the home.
        nack = self.pool.acquire(
            MessageKind.NACK, self.node, requester, block, **{"from": "owner"}
        )
        self.response_network.send(nack)
        self.pool.release(message)

    def _service_forward(
        self,
        block: int,
        requester: int,
        exclusive: bool,
        version: int,
        from_writeback_buffer: bool = False,
    ) -> None:
        """Send data for a forwarded request that found us owning the block."""
        send_time = self.now + self.timing.cache_access_ns
        data = self.pool.acquire(
            MessageKind.DATA_EXCLUSIVE if exclusive else MessageKind.DATA,
            self.node,
            requester,
            block,
            version=version,
            from_cache=True,
            acks_expected=0,
        )
        self._schedule(max(0, send_time - self.now), self._send_on_response, data)

        home = self._home_of(block)
        if exclusive:
            if not from_writeback_buffer:
                self.cache.set_state(block, CacheState.INVALID)
            else:
                self.writeback_buffer.pop(block, None)
            if self.policy.requires_transfer_ack:
                transfer = self.pool.acquire(
                    MessageKind.TRANSFER,
                    self.node,
                    home,
                    block,
                    new_owner=requester,
                )
                self.response_network.send(transfer)
        else:
            if not from_writeback_buffer:
                # MSI sharing writeback: the home regains ownership and an
                # up-to-date memory copy; we keep an S copy.
                self.cache.set_state(block, CacheState.SHARED)
                writeback = self.pool.acquire(
                    MessageKind.WRITEBACK_DATA,
                    self.node,
                    home,
                    block,
                    version=version,
                    sharing=True,
                )
                self._schedule(
                    max(0, send_time - self.now), self._send_on_response, writeback
                )
            # When serving from the writeback buffer the eviction's
            # WRITEBACK_DATA is already on its way to the home.

    def _on_invalidate(self, message: Message) -> None:
        block = message.block
        requester = message.payload["requester"]
        entry = self._mshr_get(block)
        if entry is not None:
            # An invalidation can only target a *shared* copy.  If our
            # outstanding request is a GETS, the directory may have added us
            # as a sharer and then granted M to someone else, so the incoming
            # fill must be dropped.  If our outstanding request is a GETM,
            # the invalidation refers to the stale S copy we held before the
            # upgrade (the directory never invalidates the owner it just
            # created -- it forwards to it instead), so the fill stands.
            if entry.req_kind is MessageKind.GETS:
                entry.invalidate_on_fill = True
        else:
            state = self.cache.state_of(block)
            if state is not CacheState.INVALID:
                self.cache.set_state(block, CacheState.INVALID)
        ack = self.pool.acquire(MessageKind.INV_ACK, self.node, requester, block)
        self.response_network.send(ack)
        self.pool.release(message)

    # -------------------------------------------------------------- responses
    def _on_response(self, message: Message) -> None:
        kind = message.kind
        if kind is MessageKind.DATA or kind is MessageKind.DATA_EXCLUSIVE:
            self._on_data(message)
        elif kind is MessageKind.INV_ACK:
            self._on_inv_ack(message)
        elif kind is MessageKind.NACK:
            self._on_nack(message)
        elif kind is MessageKind.WRITEBACK_ACK:
            self.writeback_buffer.pop(message.block, None)
        elif kind is MessageKind.TRANSFER:
            # Only memory controllers consume TRANSFER; receiving one here
            # indicates a routing bug, which tests assert never happens.
            self.unexpected_transfer += 1
        else:
            self.unexpected_response += 1
        # Every response kind is fully consumed above (fields are copied into
        # the MSHR, never referenced later), so the shell can be recycled.
        self.pool.release(message)

    def _on_data(self, message: Message) -> None:
        entry = self._mshr_get(message.block)
        if entry is None:
            self.orphan_data += 1
            return
        entry.data_received = True
        payload = message.payload
        entry.data_version = payload.get("version", 0)
        entry.data_from_cache = payload.get("from_cache", False)
        entry.data_exclusive = message.kind is MessageKind.DATA_EXCLUSIVE
        acks = payload.get("acks_expected", 0)
        entry.acks_required = acks
        entry.acks_expected = acks
        self._maybe_complete(message.block)

    def _on_inv_ack(self, message: Message) -> None:
        entry = self._mshr_get(message.block)
        if entry is None:
            self.orphan_inv_ack += 1
            return
        entry.acks_received += 1
        self._maybe_complete(message.block)

    def _on_nack(self, message: Message) -> None:
        entry = self._mshr_get(message.block)
        if entry is None:
            return
        entry.retries += 1
        self.nacks_received += 1
        # Bind the block now: the message shell may be recycled before the
        # retry fires.
        self._schedule(
            self.timing.nack_retry_ns, self._retry, (message.block, entry.req_kind)
        )

    def _retry(self, packed) -> None:
        block, kind = packed
        if block not in self.mshrs:
            return
        self.retries_sent += 1
        self._send_request(block, kind)

    # ------------------------------------------------------------ completion
    def _maybe_complete(self, block: int) -> None:
        entry = self._mshr_get(block)
        if entry is None or not entry.data_received:
            return
        expected = entry.acks_required
        if expected is None or entry.acks_received < expected:
            return
        entry = self.mshrs.release(block)
        access_type: AccessType = entry.access_type
        version = entry.data_version
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

        wants_modified = access_type.needs_write_permission
        if wants_modified:
            install_state = CacheState.MODIFIED
        elif self._has_exclusive_state and entry.data_exclusive:
            # MESI: the home found the block uncached and granted clean
            # exclusivity; a later store upgrades silently in _complete_hit.
            install_state = CacheState.EXCLUSIVE
        else:
            install_state = CacheState.SHARED
        deferred: Optional[List[Message]] = entry.deferred_forwards
        invalidate_on_fill = entry.invalidate_on_fill
        if invalidate_on_fill and not deferred:
            install_state = None
        if install_state is not None:
            eviction = self.cache.install(
                block,
                install_state,
                version=version,
                dirty=install_state is CacheState.MODIFIED,
            )
            if eviction.needs_writeback or (
                self._has_exclusive_state
                and eviction.victim_state is CacheState.EXCLUSIVE
            ):
                # Clean-E victims use the dirty-eviction path too: a silent
                # drop would leave the directory believing we own the block
                # and forward requests to us forever.
                self._evict_dirty(eviction.victim_block, eviction.victim_version)

        record = MissRecord(
            node=self.node,
            block=block,
            access=access_type,
            issue_time=entry.issue_time,
            complete_time=complete_time,
            source=(MissSource.CACHE if entry.data_from_cache else MissSource.MEMORY),
            retries=entry.retries,
        )
        self.record_miss(record)
        done: DoneCallback = entry.done
        done()

        # Service forwards that arrived while the fill was in flight, in
        # arrival order.
        if deferred:
            for forward in deferred:
                self._on_forward(forward)
            if invalidate_on_fill:
                # The invalidation that raced with the fill still applies
                # after any deferred forwards have been serviced.
                if self.cache.state_of(block) is not CacheState.INVALID:
                    self.cache.set_state(block, CacheState.INVALID)

    def _evict_dirty(self, block: int, version: int) -> None:
        """Write a dirty victim back to its home node."""
        home = self._home_of(block)
        self.writeback_buffer[block] = version
        putm = self.pool.acquire(
            MessageKind.PUTM, self.node, home, block, version=version
        )
        self.request_network.send(putm)
        writeback = self.pool.acquire(
            MessageKind.WRITEBACK_DATA,
            self.node,
            home,
            block,
            version=version,
            sharing=False,
        )
        self.response_network.send(writeback)
        self.dirty_evictions += 1


class DirectoryMemoryController(Component):
    """Home memory controller + directory slice for one node."""

    def __init__(
        self,
        sim: Simulator,
        node: int,
        address_space: AddressSpace,
        timing: ProtocolTiming,
        policy: DirectoryPolicy,
        request_network: DataNetwork,
        forward_network: DataNetwork,
        response_network: DataNetwork,
        pool: Optional[MessagePool] = None,
    ) -> None:
        super().__init__(sim, f"{policy.name}.home.n{node}")
        self.node = node
        self.address_space = address_space
        self.timing = timing
        self.policy = policy
        self.pool = pool if pool is not None else MessagePool()
        self._home_of = address_space.home_of
        self.request_network = request_network
        self.forward_network = forward_network
        self.response_network = response_network
        # Pre-bound sends: every delayed directory action is scheduled with
        # the message as the payload.  All of them share one delay (the
        # directory+memory access), so a request tick's whole fan-out lands
        # in one kernel lane.
        self._send_on_response = response_network.send
        self._send_on_forward = forward_network.send
        self._schedule = sim.schedule
        self.directory = DirectoryBank(node)
        #: responses waiting for an in-flight writeback's data
        self._deferred_data: Dict[int, List[Message]] = {}
        request_network.attach(node, self._on_request)

    # -------------------------------------------------------------- requests
    def _on_request(self, message: Message) -> None:
        if self._home_of(message.block) != self.node:
            raise RuntimeError(
                f"{self.name}: request for a block homed elsewhere: {message}"
            )
        kind = message.kind
        if kind is MessageKind.GETS:
            self._on_gets(message)
        elif kind is MessageKind.GETM:
            self._on_getm(message)
        elif kind is MessageKind.PUTM:
            self._on_putm(message)
        else:
            raise RuntimeError(f"{self.name}: unexpected request {message}")
        # Requests are fully handled synchronously (forwards/data/acks copy
        # the fields they need), so the shell can be recycled.
        self.pool.release(message)

    def _on_gets(self, message: Message) -> None:
        entry = self.directory.entry(message.block)
        requester = message.src
        if entry.state.is_busy:
            self._busy(message, entry)
            return
        if entry.state is DirectoryState.MODIFIED:
            owner = entry.owner
            self._forward(message, owner, exclusive=False)
            if self.policy.nack_when_busy:
                entry.state = DirectoryState.BUSY_SHARED
                entry.busy_for = requester
            else:
                entry.make_shared(entry.sharers_mask | (1 << owner) | (1 << requester))
                entry.awaiting_data = True
            return
        # Memory owns the block: serve it after the directory+memory access.
        if (
            self.policy.has_exclusive_state
            and entry.state is DirectoryState.UNCACHED
        ):
            # MESI: nobody holds a copy, so grant clean exclusivity.  The
            # directory tracks the E owner as MODIFIED (the usual EM
            # ambiguity): a later store upgrades silently at the cache, and
            # forwards / PUTMs behave identically for E and M owners.
            entry.make_modified(requester)
            self._send_data(message, entry, exclusive=True, acks_expected=0)
            return
        entry.add_sharer(requester)
        self._send_data(message, entry, exclusive=False, acks_expected=0)

    def _on_getm(self, message: Message) -> None:
        entry = self.directory.entry(message.block)
        requester = message.src
        if entry.state.is_busy:
            self._busy(message, entry)
            return
        if entry.state is DirectoryState.MODIFIED:
            owner = entry.owner
            self._forward(message, owner, exclusive=True)
            if self.policy.nack_when_busy:
                entry.state = DirectoryState.BUSY_MODIFIED
                entry.busy_for = requester
            else:
                entry.make_modified(requester)
            return
        # Memory owns the block; invalidate sharers and grant M.  The mask
        # iterates in ascending node order, matching the old sorted() walk.
        targets = entry.sharers_excluding(requester)
        schedule = self._schedule
        delay = self.timing.memory_access_ns
        send_on_forward = self._send_on_forward
        for sharer in iter_sharers(targets):
            invalidate = self.pool.acquire(
                MessageKind.INVALIDATE,
                self.node,
                sharer,
                message.block,
                requester=requester,
            )
            schedule(delay, send_on_forward, invalidate)
        self._send_data(
            message, entry, exclusive=True, acks_expected=targets.bit_count()
        )
        entry.make_modified(requester)

    def _on_putm(self, message: Message) -> None:
        entry = self.directory.entry(message.block)
        requester = message.src
        stale = not (
            entry.owner == requester
            and entry.state
            in (
                DirectoryState.MODIFIED,
                DirectoryState.BUSY_SHARED,
                DirectoryState.BUSY_MODIFIED,
            )
        )
        if not stale:
            entry.reset_to_uncached()
            entry.awaiting_data = entry.early_data_from != requester
            entry.early_data_from = None
        ack = self.pool.acquire(
            MessageKind.WRITEBACK_ACK, self.node, requester, message.block
        )
        self._schedule(self.timing.memory_access_ns, self._send_on_response, ack)

    # --------------------------------------------------------------- helpers
    def _busy(self, message: Message, entry: DirectoryEntry) -> None:
        """A request found the entry busy (DirClassic only)."""
        nack = self.pool.acquire(
            MessageKind.NACK,
            self.node,
            message.src,
            message.block,
            **{"from": "home"},
        )
        self._schedule(self.timing.memory_access_ns, self._send_on_response, nack)

    def _forward(self, message: Message, owner: int, exclusive: bool) -> None:
        kind = MessageKind.FORWARD_GETM if exclusive else MessageKind.FORWARD_GETS
        forward = self.pool.acquire(
            kind, self.node, owner, message.block, requester=message.src
        )
        self._schedule(self.timing.memory_access_ns, self._send_on_forward, forward)

    def _send_data(
        self,
        message: Message,
        entry: DirectoryEntry,
        exclusive: bool,
        acks_expected: int,
    ) -> None:
        data = self.pool.acquire(
            MessageKind.DATA_EXCLUSIVE if exclusive else MessageKind.DATA,
            self.node,
            message.src,
            message.block,
            version=entry.version,
            from_cache=False,
            acks_expected=acks_expected,
        )
        if entry.awaiting_data:
            self._deferred_data.setdefault(message.block, []).append(data)
            return
        self._schedule(self.timing.memory_access_ns, self._send_on_response, data)

    # ------------------------------------------------------- writeback plane
    def on_writeback_data(self, message: Message) -> None:
        """WRITEBACK_DATA (sharing or eviction) arrived for a homed block."""
        entry = self.directory.entry(message.block)
        entry.version = max(entry.version, message.payload.get("version", 0))
        if (
            entry.state is DirectoryState.MODIFIED
            and entry.owner == message.src
            and not message.payload.get("sharing", False)
        ):
            # Eviction data racing ahead of its PUTM; remember it so the PUTM
            # does not leave the entry waiting for a second copy.
            entry.early_data_from = message.src
        entry.awaiting_data = False
        if message.payload.get("sharing", False) and self.policy.nack_when_busy:
            # DirClassic: the sharing writeback resolves the BUSY_SHARED state
            # opened when the GETS was forwarded.
            if entry.state is DirectoryState.BUSY_SHARED:
                mask = entry.sharers_mask | (1 << message.src)
                if entry.busy_for is not None:
                    mask |= 1 << entry.busy_for
                if entry.owner is not None:
                    mask |= 1 << entry.owner
                entry.make_shared(mask)
        pending = self._deferred_data.pop(message.block, [])
        for data in pending:
            data.payload["version"] = entry.version
            self._schedule(self.timing.memory_access_ns, self._send_on_response, data)
        self.pool.release(message)

    def on_transfer(self, message: Message) -> None:
        """Ownership-transfer confirmation (DirClassic BUSY_MODIFIED exit)."""
        entry = self.directory.entry(message.block)
        if entry.state is DirectoryState.BUSY_MODIFIED:
            entry.make_modified(message.payload["new_owner"])
        self.pool.release(message)


class _HomeResponseRouter(Component):
    """Demultiplexes response-network traffic addressed to a node.

    Data/acks for the cache controller and writeback data / transfer
    confirmations for the memory controller share the response virtual
    network; this tiny router keeps each controller's handler simple.
    """

    def __init__(
        self,
        sim: Simulator,
        node: int,
        cache: DirectoryCacheController,
        memory: DirectoryMemoryController,
    ) -> None:
        super().__init__(sim, f"resp-router.n{node}")
        self.cache = cache
        self.memory = memory

    def route(self, message: Message) -> None:
        if message.kind is MessageKind.WRITEBACK_DATA:
            self.memory.on_writeback_data(message)
        elif message.kind is MessageKind.TRANSFER:
            self.memory.on_transfer(message)
        else:
            self.cache._on_response(message)


class DirectoryProtocol(CoherenceProtocol):
    """Factory shared by the directory protocols (differs only in policy)."""

    def __init__(self, policy: DirectoryPolicy) -> None:
        self.policy = policy

    def build(self, context: ProtocolBuildContext) -> List[DirectoryCacheController]:
        sim = context.sim
        # The three virtual networks share one topology and one timing, so
        # they share one memoised route table (up to num_nodes**2 entries
        # that would otherwise be computed three times over).
        routes: dict = {}
        forward_class = (
            PointToPointOrderedNetwork
            if self.policy.ordered_forward_network
            else DataNetwork
        )
        request_network, forward_network, response_network = (
            network_class(
                sim,
                context.topology,
                context.network_timing,
                context.accountant,
                perturbation=context.perturbation,
                name=f"dir-{role}-vnet",
                routes=routes,
            )
            for network_class, role in (
                (DataNetwork, "request"),
                (forward_class, "forward"),
                (DataNetwork, "response"),
            )
        )

        caches: List[DirectoryCacheController] = []
        pool = context.message_pool
        for node in range(context.num_nodes):
            cache = DirectoryCacheController(
                sim,
                node,
                context.address_space,
                context.caches[node],
                context.protocol_timing,
                self.policy,
                request_network,
                forward_network,
                response_network,
                checker=context.checker,
                pool=pool,
            )
            memory = DirectoryMemoryController(
                sim,
                node,
                context.address_space,
                context.protocol_timing,
                self.policy,
                request_network,
                forward_network,
                response_network,
                pool=pool,
            )
            router = _HomeResponseRouter(sim, node, cache, memory)
            response_network.attach(node, router.route)
            cache.memory_controller = memory
            caches.append(cache)
        return caches
