"""The detailed, event-accurate timestamp snooping address network.

This is the direct implementation of Section 2.2: every fabric node of a
:class:`~repro.network.topology.Topology` hosts a
:class:`~repro.core.token_switch.TokenSwitch`; endpoints additionally host an
:class:`~repro.core.ordering_queue.OrderingQueue`.  Tokens circulate over
every fabric link (one logical hop per ``Dswitch`` of physical time);
address transactions are broadcast along the per-source spanning tree with
the three slack rules applied in flight, and every endpoint releases
transactions to its protocol controller in the global logical order.

The model can optionally emulate switch contention (``hold_probability``):
a transaction may be buffered inside a switch for a while, exercising rule 2
(tokens moving past buffered transactions) and the zero-slack blocking rule.
This is how the property tests check that the total order survives arbitrary
buffering, which is the paper's central correctness claim.

Full workload runs use the closed-form
:class:`~repro.core.analytical_ordering.AnalyticalTimestampNetwork` instead;
both models agree on unloaded timing to first order (verified by tests).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.ordering_queue import OrderingQueue, PendingTransaction
from repro.core.token_switch import BufferedTransaction, TokenSwitch
from repro.network.link import TrafficAccountant
from repro.network.message import Message
from repro.network.timing import NetworkTiming
from repro.network.topology import (
    BroadcastTree,
    NodeId,
    Topology,
    endpoint_index,
    endpoint_node,
    is_endpoint,
)
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.randomness import DeterministicRandom


#: Event priorities: a message travelling with a token wave must be handled
#: before the token itself at the same physical instant.
_MESSAGE_PRIORITY = 0
_TOKEN_PRIORITY = 1


@dataclass(slots=True)
class OrderedDelivery:
    """What an endpoint's protocol controller receives for each transaction.

    ``home`` is the block's home node when the delivering network resolved
    it (the analytical network computes it once per broadcast instead of
    once per endpoint), or -1 when it did not (the detailed network);
    consumers fall back to their own resolver then.
    """

    message: Message
    endpoint: int
    arrival_time: int
    ordered_time: int
    logical_time: int
    home: int = -1


OrderedHandler = Callable[[OrderedDelivery], None]
EarlyHandler = Callable[[Message, int], None]


class AddressNetworkInterface(Component, ABC):
    """Interface shared by the detailed and analytical address networks."""

    def __init__(self, sim: Simulator, name: str, default_slack: int) -> None:
        super().__init__(sim, name)
        if default_slack < 0:
            raise ValueError("default_slack must be non-negative")
        self.default_slack = default_slack

    @abstractmethod
    def attach(
        self,
        endpoint: int,
        ordered_handler: OrderedHandler,
        early_handler: Optional[EarlyHandler] = None,
    ) -> None:
        """Register the handlers of the controller at ``endpoint``."""

    @abstractmethod
    def broadcast(self, message: Message, slack: Optional[int] = None) -> None:
        """Broadcast an address transaction from ``message.src``."""


class _EndpointPort:
    """Bookkeeping for one attached endpoint."""

    def __init__(self, endpoint: int) -> None:
        self.endpoint = endpoint
        self.queue = OrderingQueue(endpoint)
        self.ordered_handler: Optional[OrderedHandler] = None
        self.early_handler: Optional[EarlyHandler] = None
        self.arrival_times: Dict[int, int] = {}  # msg_id -> arrival time


class TimestampAddressNetwork(AddressNetworkInterface):
    """Event-accurate token-passing broadcast address network."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        timing: Optional[NetworkTiming] = None,
        accountant: Optional[TrafficAccountant] = None,
        default_slack: int = 0,
        hold_probability: float = 0.0,
        rng: Optional[DeterministicRandom] = None,
        name: str = "ts-network",
    ) -> None:
        super().__init__(sim, name, default_slack)
        self.topology = topology
        self.timing = timing or NetworkTiming()
        self.accountant = accountant
        if not 0.0 <= hold_probability < 1.0:
            raise ValueError("hold_probability must be in [0, 1)")
        self.hold_probability = hold_probability
        self.rng = rng or DeterministicRandom(0)
        self._sequence = 0
        self._started = False

        # Build the switch fabric.
        self._inputs: Dict[NodeId, List[NodeId]] = {}
        self._outputs: Dict[NodeId, List[NodeId]] = {}
        for node in topology.fabric_nodes():
            self._inputs[node] = []
            self._outputs[node] = []
        for src, dst in topology.fabric_links():
            self._outputs[src].append(dst)
            self._inputs[dst].append(src)
        self.switches: Dict[NodeId, TokenSwitch] = {
            node: TokenSwitch(node, self._inputs[node], self._outputs[node])
            for node in topology.fabric_nodes()
        }
        self.ports: Dict[int, _EndpointPort] = {
            ep: _EndpointPort(ep) for ep in topology.endpoints()
        }
        #: source -> (broadcast tree, its link count), built on first use.
        self._trees: Dict[int, Tuple[BroadcastTree, int]] = {}
        #: Retired hop-copy shells, reused by :meth:`_copy_factory` so the
        #: per-hop fan-out stops allocating one BufferedTransaction per
        #: branch per switch.
        self._txn_free: List[BufferedTransaction] = []
        #: Transactions kept buffered by the emulated contention.
        self.held_transactions = 0

    # -------------------------------------------------------------- plumbing
    def attach(
        self,
        endpoint: int,
        ordered_handler: OrderedHandler,
        early_handler: Optional[EarlyHandler] = None,
    ) -> None:
        port = self.ports[endpoint]
        port.ordered_handler = ordered_handler
        port.early_handler = early_handler

    def start(self) -> None:
        """Seed the initial tokens and begin token circulation."""
        if self._started:
            return
        self._started = True
        for node in self.switches:
            self.schedule(
                0,
                self._try_propagate,
                priority=_TOKEN_PRIORITY,
                arg=node,
            )

    # ------------------------------------------------------------- broadcast
    def broadcast(self, message: Message, slack: Optional[int] = None) -> None:
        if not self._started:
            self.start()
        if slack is None:
            slack = self.default_slack
        source = message.src
        memo = self._trees.get(source)
        if memo is None:
            tree = self.topology.broadcast_tree(source)
            memo = self._trees[source] = (tree, tree.link_count())
        tree, link_count = memo
        message.sent_at = self.now
        if self.accountant is not None:
            self.accountant.record(message, link_count)
        self._sequence += 1
        transaction = self._copy_factory(
            payload=message, slack=slack, source=source, sequence=self._sequence
        )
        root = endpoint_node(source)
        # The transaction enters the network after the entry overhead and is
        # then at the root of its broadcast tree.  Every event this network
        # schedules rides a pre-bound handler plus a packed payload, so the
        # per-broadcast path allocates no closures.
        self.schedule(
            self.timing.overhead_ns,
            self._inject,
            priority=_MESSAGE_PRIORITY,
            arg=(root, transaction, tree),
        )

    def _inject(self, packed) -> None:
        root, transaction, tree = packed
        self._arrive(root, None, transaction, tree)

    # -------------------------------------------------------- hop-copy reuse
    def _copy_factory(
        self, payload=None, slack: int = 0, source: int = 0, sequence: int = 0
    ) -> BufferedTransaction:
        """Build a hop copy, reusing a retired shell when one is free."""
        free = self._txn_free
        if not free:
            return BufferedTransaction(
                payload=payload, slack=slack, source=source, sequence=sequence
            )
        txn = free.pop()
        txn.payload = payload
        txn.slack = slack
        txn.source = source
        txn.sequence = sequence
        return txn

    def _retire_txn(self, txn: BufferedTransaction) -> None:
        txn.payload = None
        self._txn_free.append(txn)

    # ----------------------------------------------------- transaction events
    def _arrive(
        self,
        node: NodeId,
        input_port: Optional[NodeId],
        transaction: BufferedTransaction,
        tree: BroadcastTree,
    ) -> None:
        """A transaction copy reaches fabric node ``node``."""
        switch = self.switches[node]
        source_node = endpoint_node(tree.source)
        if input_port is None:
            switch.inject_transaction(transaction)
        else:
            switch.receive_transaction(input_port, transaction)

        # A copy that returned to the source endpoint through the network is a
        # leaf delivery (butterfly): it is consumed here, never forwarded back
        # into the fabric, and carries no remaining tree depth.
        is_returned_source_copy = input_port is not None and node == source_node

        # Local delivery: endpoints take a copy whose slack is padded by the
        # remaining tree depth below this node so its OT matches the copies
        # still travelling toward farther endpoints.  On topologies where the
        # source is not co-located with a switch (butterfly), the source's
        # own copy comes back through the network instead of being taken at
        # injection time.
        if is_endpoint(node):
            at_injection = input_port is None
            source_hears_itself_via_network = tree.arrival_hops[tree.source] > 0
            if not (at_injection and source_hears_itself_via_network):
                pad = 0 if is_returned_source_copy else tree.remaining_depth(node)
                self._deliver_local(node, transaction, tree, pad)

        if is_returned_source_copy:
            switch.buffer.remove(transaction)
            self._retire_txn(transaction)
            self._try_propagate(node)
            return

        if (
            self.hold_probability > 0.0
            and transaction.slack > 0
            and self.rng.random() < self.hold_probability
        ):
            # Emulated contention: keep the transaction buffered for one
            # switch traversal time, then forward it.
            self.held_transactions += 1
            self.schedule(
                self.timing.switch_ns,
                self._release_held,
                priority=_MESSAGE_PRIORITY,
                arg=(node, transaction, tree),
            )
        else:
            self._forward(node, transaction, tree)

    def _release_held(self, packed) -> None:
        node, transaction, tree = packed
        self._forward(node, transaction, tree)

    def _forward(
        self, node: NodeId, transaction: BufferedTransaction, tree: BroadcastTree
    ) -> None:
        """Forward a buffered transaction along its tree branches."""
        switch = self.switches[node]
        if transaction not in switch.buffer:
            return
        branches = tree.branches_from(node)
        outputs = switch.release_transaction(
            transaction,
            [(child, delta) for child, delta in branches],
            factory=self._copy_factory,
        )
        # The parent shell dies here: its copies (if any) carry the payload
        # onward and nothing else references it.
        self._retire_txn(transaction)
        if outputs:
            # All copies of one forwarding step traverse their links in the
            # same Dswitch interval, so they ride a single batched event;
            # the batch body preserves the branch (seq) order the individual
            # events would have had.
            self.schedule(
                self.timing.switch_ns,
                self._arrive_batch,
                priority=_MESSAGE_PRIORITY,
                arg=(node, outputs, tree),
            )
        # Forwarding may have unblocked token propagation (zero-slack rule).
        self._try_propagate(node)

    def _arrive_batch(self, packed) -> None:
        node, outputs, tree = packed
        for child, copy in outputs:
            self._arrive(child, node, copy, tree)

    def _deliver_local(
        self,
        node: NodeId,
        transaction: BufferedTransaction,
        tree: BroadcastTree,
        pad: int,
    ) -> None:
        endpoint = endpoint_index(node)
        port = self.ports[endpoint]
        padded_slack = transaction.slack + pad
        message: Message = transaction.payload
        port.arrival_times[message.msg_id] = self.now
        if port.early_handler is not None:
            port.early_handler(message, self.now)
        port.queue.insert(
            message, padded_slack, transaction.source, transaction.sequence
        )
        # Zero-slack arrivals are processable immediately.
        self._release(port, port.queue.release_current())

    # ----------------------------------------------------------- token events
    def _receive_token(self, node: NodeId, input_port: NodeId) -> None:
        self.switches[node].receive_token(input_port)
        self._try_propagate(node)

    def _receive_token_batch(self, packed) -> None:
        source, downstream = packed
        for node in downstream:
            self._receive_token(node, source)

    def _try_propagate(self, node: NodeId) -> None:
        switch = self.switches[node]
        while switch.can_propagate():
            outputs = switch.propagate_token()
            if is_endpoint(node):
                port = self.ports[endpoint_index(node)]
                self._release(port, port.queue.on_token())
            if outputs:
                # One token wave fans out over every output link during the
                # same Dswitch interval: deliver the whole wave with one
                # batched event (the batch body keeps the per-output order
                # the individual events would have had).
                self.schedule(
                    self.timing.switch_ns,
                    self._receive_token_batch,
                    priority=_TOKEN_PRIORITY,
                    arg=(node, outputs),
                )

    def _release(self, port: _EndpointPort, released: List[PendingTransaction]) -> None:
        for entry in released:
            message: Message = entry.payload
            if port.ordered_handler is None:
                continue
            delivery = OrderedDelivery(
                message=message,
                endpoint=port.endpoint,
                arrival_time=port.arrival_times.pop(message.msg_id, self.now),
                ordered_time=self.now,
                logical_time=port.queue.guarantee_time,
            )
            port.ordered_handler(delivery)

    # ------------------------------------------------------------- inspection
    def guarantee_time(self, endpoint: int) -> int:
        return self.ports[endpoint].queue.guarantee_time
