"""Unordered point-to-point data network.

Section 2: "The data network must reliably deliver data messages to a single
destination, but it can do so without regard for order."  The directory
protocols build their unordered request and response virtual networks from
the same class; DirOpt's point-to-point ordered forwarded-request network
subclasses it (see :mod:`repro.network.virtual_network`).

The performance model is the paper's: unloaded latencies only, computed from
the topology hop count, plus the optional perturbation delay of Section 4.3.
Every send charges its link traversals to the shared
:class:`~repro.network.link.TrafficAccountant`.
"""
# repro-lint: hot

from __future__ import annotations

from typing import Callable, Optional

from repro.network.link import TrafficAccountant
from repro.network.message import Message
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel

DeliveryCallback = Callable[[Message], None]


class DataNetwork(Component):
    """Delivers unicast messages after the unloaded topology latency.

    Receivers register a per-node handler with :meth:`attach`; a sender may
    also pass an explicit ``on_deliver`` callback (used by tests and by
    simple point-to-point examples).
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        timing: NetworkTiming,
        accountant: TrafficAccountant,
        perturbation: Optional[PerturbationModel] = None,
        name: str = "data-network",
        routes: Optional[dict] = None,
    ) -> None:
        super().__init__(sim, name)
        self.topology = topology
        self.timing = timing
        self.accountant = accountant
        #: The single source of truth for jitter: ``None`` unless the model
        #: is live.  Enablement is fixed at construction (a replica's
        #: ``PerturbationModel`` never changes ``max_delay_ns`` after init),
        #: so the send path skips the ``enabled`` property per message.
        self._active_perturbation = (
            perturbation
            if perturbation is not None and perturbation.enabled
            else None
        )
        self._receivers: dict[int, DeliveryCallback] = {}
        #: src * num_endpoints + dst -> (latency, traversals); unloaded
        #: routes are static, so each pair is computed once per run.  The
        #: packed int key skips a tuple allocation per send, and networks
        #: sharing a topology and timing (the directory protocols' three
        #: virtual networks) can share one table via ``routes``.
        self._routes: dict[int, tuple[int, int]] = routes if routes is not None else {}
        self._route_stride = topology.num_endpoints
        #: hops -> unloaded latency; at most max_hops distinct values.
        self._latency_by_hops: dict[int, int] = {}
        self._record_traffic = accountant.record
        #: Pre-bound push: each delivery is one append to the destination
        #: tick's kernel lane -- no per-send closure.
        self._schedule = sim.schedule

    # -------------------------------------------------------------- receivers
    def attach(self, node: int, handler: DeliveryCallback) -> None:
        """Register the delivery handler for endpoint ``node``."""
        self._receivers[node] = handler

    # ----------------------------------------------------------------- sends
    def _prepare_send(
        self,
        message: Message,
        on_deliver: Optional[DeliveryCallback],
    ) -> tuple[DeliveryCallback, int]:
        """Shared per-send prologue: resolve the handler, compute the
        (memoised) unloaded latency plus any perturbation, and account the
        traffic.  Returns ``(handler, latency)``; used by both the plain and
        the point-to-point-ordered send paths so the fast path exists once.
        """
        if message.dst is None:
            raise ValueError(f"{self.name} only carries unicast messages")
        if on_deliver is not None:
            handler = on_deliver
        else:
            handler = self._receivers.get(message.dst)
            if handler is None:
                raise ValueError(
                    f"{self.name}: no receiver attached for node {message.dst}"
                )
        route = message.src * self._route_stride + message.dst
        cached = self._routes.get(route)
        if cached is None:
            cached = self._latency_and_traversals(message.src, message.dst)
            self._routes[route] = cached
        latency, traversals = cached
        perturbation = self._active_perturbation
        if perturbation is not None:
            latency += perturbation.response_delay()
        self._record_traffic(message, traversals)
        return handler, latency

    def send(
        self,
        message: Message,
        on_deliver: Optional[DeliveryCallback] = None,
    ) -> int:
        """Send ``message``; returns the absolute delivery time.

        Delivery goes to the handler registered for ``message.dst`` (or the
        explicit ``on_deliver`` override).  Messages whose source and
        destination are the same node are delivered locally (zero link
        traversals).

        The ``_prepare_send`` prologue is inlined here: this is the
        simulator's hottest function after the kernel dispatch loop, and
        the extra call layer costs more than the shared code saves.
        """
        dst = message.dst
        if dst is None:
            raise ValueError(f"{self.name} only carries unicast messages")
        if on_deliver is not None:
            handler = on_deliver
        else:
            handler = self._receivers.get(dst)
            if handler is None:
                raise ValueError(f"{self.name}: no receiver attached for node {dst}")
        route = message.src * self._route_stride + dst
        cached = self._routes.get(route)
        if cached is None:
            cached = self._latency_and_traversals(message.src, dst)
            self._routes[route] = cached
        latency, traversals = cached
        perturbation = self._active_perturbation
        if perturbation is not None:
            latency += perturbation.response_delay()
        self._record_traffic(message, traversals)
        now = self.sim.now
        self._schedule(latency, handler, message)
        return now + latency

    def latency(self, src: int, dst: int) -> int:
        """Unloaded latency between two endpoints (no perturbation)."""
        return self._latency_and_traversals(src, dst)[0]

    # --------------------------------------------------------------- helpers
    def _latency_and_traversals(self, src: int, dst: int) -> tuple[int, int]:
        if src == dst:
            return self.timing.local_delivery_ns, 0
        hops = self.topology.hop_count(src, dst)
        latency = self._latency_by_hops.get(hops)
        if latency is None:
            latency = self._latency_by_hops[hops] = self.timing.one_way_latency(hops)
        return latency, hops
