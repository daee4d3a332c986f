"""Closed-form model of the timestamp snooping address network.

Full workload runs (millions of simulated nanoseconds) cannot afford to
simulate every token exchange, and they do not need to: the paper models no
network contention, so the detailed network's behaviour has a closed form.

For a broadcast injected at physical time ``t`` with slack ``S`` from source
``s`` over a topology with worst-case broadcast depth ``Dmax``:

* the copy for destination ``d`` *arrives* at
  ``t + Dovh + arrival_hops(s, d) * Dswitch`` (delivered as fast as the
  spanning tree allows, without regard to order);
* every destination may *process* the transaction once its guarantee time
  reaches the transaction's ordering time, which happens at
  ``t + Dovh + (Dmax + S) * Dswitch`` (tokens advance one logical hop per
  switch traversal time);
* all destinations process all transactions in the same total order because
  the ordering instant is a global property of the transaction, with ties
  broken by injection order (itself deterministic).

Logically every transaction reaches every endpoint, but most of those
deliveries are no-ops for a snooping controller that holds nothing for the
block.  A network built with a home resolver therefore acts as a snoop
filter: each endpoint keeps its own bit in the per-block
:attr:`AnalyticalTimestampNetwork.interest` bitmask while it holds any state
for the block, and the ordered fan-out calls it only for transactions it is
the source or home of, or whose block it has set a bit for.  Without a home
resolver every attached endpoint sees every transaction.

The class exposes the same interface as
:class:`~repro.core.timestamp_network.TimestampAddressNetwork` so the
TS-Snoop protocol can run on either.  Agreement between the two models on
unloaded latency and ordering is covered by tests.
"""
# repro-lint: hot

from __future__ import annotations

from typing import Dict, Optional

from repro.core.timestamp_network import (
    AddressNetworkInterface,
    EarlyHandler,
    OrderedDelivery,
    OrderedHandler,
)
from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessagePool
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel


class AnalyticalTimestampNetwork(AddressNetworkInterface):
    """Unloaded-latency timestamp snooping address network."""

    #: The detailed network's endpoints use a strict release rule: an
    #: ordering-time-``v`` transaction is processed when the endpoint GT
    #: reaches ``v + 1``, i.e. one extra token interval after the nominal
    #: ``Dovh + (Dmax + S) * Dswitch``.  The analytical model adds the same
    #: interval so both agree on the physical instant of processability.
    ORDERING_MARGIN = 1

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        timing: Optional[NetworkTiming] = None,
        accountant: Optional[TrafficAccountant] = None,
        default_slack: int = 0,
        perturbation: Optional[PerturbationModel] = None,
        message_pool: Optional[MessagePool] = None,
        home_resolver=None,
        name: str = "ts-network-analytic",
    ) -> None:
        super().__init__(sim, name, default_slack)
        self.topology = topology
        self.timing = timing or NetworkTiming()
        self.accountant = accountant
        #: Single source of truth for jitter; enablement is fixed at
        #: construction (see DataNetwork).
        self._active_perturbation = (
            perturbation
            if perturbation is not None and perturbation.enabled
            else None
        )
        #: When set, broadcast shells are recycled here after the last
        #: ordered handler has run (TS-Snoop handlers copy what they keep).
        self.message_pool = message_pool
        #: block -> home node, resolved once per broadcast and carried in
        #: the deliveries so endpoints skip a per-endpoint resolver call.
        self._home_resolver = home_resolver
        self._ordered_handlers: Dict[int, OrderedHandler] = {}
        self._early_handlers: Dict[int, EarlyHandler] = {}
        #: Snoop filter (read only with a home resolver): block -> bitmask
        #: of the endpoints holding state for the block (an MSHR, a
        #: writeback-buffer entry or a valid line), the same int-bitmask
        #: idiom as the directory's ``sharers_mask``.  Each endpoint
        #: maintains its own bit.
        self.interest: Dict[int, int] = {}
        #: Endpoints called for every broadcast despite the filter; tests
        #: set it to all endpoints to force the full fan-out.
        self.always_mask = 0
        self._attached_mask = 0
        #: source -> per-endpoint (handler, arrival offset) pairs indexed by
        #: endpoint (None where nothing is attached), rebuilt lazily after
        #: attach(); avoids a handler dict lookup and an arrival-hops
        #: multiply per delivery on the ordered fan-out path.
        self._rows_by_source: Dict[int, list] = {}
        #: broadcast trees are a pure function of the source; memoised
        #: exactly as the detailed network does.
        self._trees: Dict[int, object] = {}
        self._delivery_scratch = OrderedDelivery(
            message=None, endpoint=0, arrival_time=0, ordered_time=0, logical_time=0
        )
        self._ordering_delay_cache: Dict[tuple, int] = {}
        self._logical_counter = 0
        #: Pre-bound batched push: both the early deliveries and the ordered
        #: fan-out are fire-and-forget, so every broadcast folds into the
        #: per-tick dispatch batches instead of paying one kernel event per
        #: endpoint notification.
        self._sched_batched = sim.schedule_batched
        # Pre-bound counter handles for the per-broadcast fast path.
        self._ctr_broadcasts = self.stats.counter("broadcasts")
        self._ctr_deliveries = self.stats.counter("deliveries")

    # -------------------------------------------------------------- plumbing
    def attach(
        self,
        endpoint: int,
        ordered_handler: OrderedHandler,
        early_handler: Optional[EarlyHandler] = None,
    ) -> None:
        if not 0 <= endpoint < self.topology.num_endpoints:
            raise ValueError(f"endpoint {endpoint} out of range")
        self._attached_mask |= 1 << endpoint
        self._ordered_handlers[endpoint] = ordered_handler
        if early_handler is not None:
            self._early_handlers[endpoint] = early_handler
        self._rows_by_source.clear()

    # ------------------------------------------------------------- broadcast
    def broadcast(self, message: Message, slack: Optional[int] = None) -> None:
        if slack is None:
            slack = self.default_slack
        if slack < 0:
            raise ValueError("slack must be non-negative")
        source = message.src
        message.sent_at = self.now
        tree = self._trees.get(source)
        if tree is None:
            tree = self.topology.broadcast_tree(source)
            self._trees[source] = tree
        if self.accountant is not None:
            self.accountant.record(message, tree.link_count())
        self._ctr_broadcasts.increment()

        jitter = 0
        perturbation = self._active_perturbation
        if perturbation is not None:
            jitter = perturbation.response_delay()

        key = (tree.depth, slack)
        base_delay = self._ordering_delay_cache.get(key)
        if base_delay is None:
            base_delay = self.timing.ordering_latency(
                tree.depth, slack + self.ORDERING_MARGIN
            )
            self._ordering_delay_cache[key] = base_delay
        ordered_delay = base_delay + jitter
        ordered_time = self.now + ordered_delay
        self._logical_counter += 1
        logical_time = self._logical_counter
        injected_at = self.now

        # Early ("peek") deliveries are only scheduled for endpoints that
        # asked for them; the arrival time itself is also carried in the
        # ordered delivery so controllers can model the prefetch optimisation
        # without a separate event.  The scheduled instant *is* the arrival
        # time, so the dispatcher passes only (handler, message) and
        # _deliver_early reads the clock.
        sched_batched = self._sched_batched
        # repro-lint: disable=DET002 -- insertion order is attach order, which
        # build() fixes to ascending node id; every run replays it identically.
        for endpoint, early in self._early_handlers.items():
            arrival_delay = (
                self.timing.overhead_ns
                + tree.arrival_hops[endpoint] * self.timing.switch_ns
            )
            sched_batched(arrival_delay, self._deliver_early, (early, message))

        # All endpoints become able to process the transaction at the same
        # physical instant; one event fans out, in endpoint order, to the
        # endpoints that are its source or home or hold state for the block
        # (to every endpoint when there is no home resolver).  Transactions
        # whose ordering instants coincide are tie-broken by source id (the
        # event priority), exactly as the detailed token network and the
        # paper's Section 2.2 prescribe.
        # The pre-bound handler + packed payload replaces a per-broadcast
        # closure (pooled event shells and per-tick batches make the whole
        # path allocation-free).
        sched_batched(
            ordered_delay,
            self._deliver_ordered,
            (message, tree, injected_at, ordered_time, logical_time),
            message.src,
        )
        # Logical deliveries: every endpoint, whether or not it is called.
        self._ctr_deliveries.increment(self.topology.num_endpoints)

    def _deliver_early(self, packed) -> None:
        early, message = packed
        early(message, self.now)

    def _rows_for(self, source: int, tree) -> list:
        """Per-endpoint (handler, arrival offset) pairs for one source."""
        overhead = self.timing.overhead_ns
        switch_ns = self.timing.switch_ns
        arrival_hops = tree.arrival_hops
        handlers = self._ordered_handlers
        rows = [
            (handlers[endpoint], overhead + arrival_hops[endpoint] * switch_ns)
            if endpoint in handlers
            else None
            for endpoint in self.topology.endpoints()
        ]
        self._rows_by_source[source] = rows
        return rows

    def _deliver_ordered(self, packed) -> None:
        message, tree, injected_at, ordered_time, logical_time = packed
        source = message.src
        rows = self._rows_by_source.get(source)
        if rows is None:
            rows = self._rows_for(source, tree)
        resolver = self._home_resolver
        if resolver is None:
            home = -1
            visit = self._attached_mask
        else:
            block = message.block
            home = resolver(block)
            # Skipped endpoints would have returned without sending,
            # counting or changing state, and within this one event only
            # the source can gain state for the block, so the calls made
            # are exactly the full fan-out's effective ones, in its order.
            visit = (
                self.always_mask
                | self.interest.get(block, 0)
                | 1 << source
                | 1 << home
            ) & self._attached_mask
        pool = self.message_pool
        if pool is not None and pool.enabled:
            # Pooled builds come with a no-retention contract (TS-Snoop
            # handlers copy the scalars they keep), so one OrderedDelivery
            # shell is mutated across the whole fan-out and the message
            # shell is recycled once the last endpoint has processed it.
            # The reference data path (pooling disabled) keeps the
            # one-delivery-per-endpoint allocation below.
            delivery = self._delivery_scratch
            delivery.message = message
            delivery.ordered_time = ordered_time
            delivery.logical_time = logical_time
            delivery.home = home
            while visit:
                low = visit & -visit
                visit ^= low
                endpoint = low.bit_length() - 1
                handler, offset = rows[endpoint]
                delivery.endpoint = endpoint
                delivery.arrival_time = injected_at + offset
                handler(delivery)
            delivery.message = None
            pool.release(message)
            return
        while visit:
            low = visit & -visit
            visit ^= low
            endpoint = low.bit_length() - 1
            handler, offset = rows[endpoint]
            handler(
                OrderedDelivery(
                    message=message,
                    endpoint=endpoint,
                    arrival_time=injected_at + offset,
                    ordered_time=ordered_time,
                    logical_time=logical_time,
                    home=home,
                )
            )

    # ------------------------------------------------------------- inspection
    def ordering_latency(self, slack: Optional[int] = None) -> int:
        """Physical delay from injection to global processability."""
        if slack is None:
            slack = self.default_slack
        return self.timing.ordering_latency(
            self.topology.max_hops, slack + self.ORDERING_MARGIN
        )

    def arrival_latency(self, src: int, dst: int) -> int:
        hops = self.topology.broadcast_arrival_hops(src, dst)
        return self.timing.overhead_ns + hops * self.timing.switch_ns
