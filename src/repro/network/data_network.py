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

from functools import lru_cache
from typing import Callable, Optional

from repro.network.link import TrafficAccountant
from repro.network.message import Message
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.sim.component import Component
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel

DeliveryCallback = Callable[[Message], None]


@lru_cache(maxsize=16)
def _route_pairs(timing: NetworkTiming, max_hops: int) -> tuple[tuple[int, int], ...]:
    """``(latency, hops)`` for every hop count up to ``max_hops``, then the
    local ``(local_delivery_ns, 0)`` pair last: the only values a route row
    holds.  Cached per (timing, max_hops), so every network of a run shares
    the same at most ``max_hops + 2`` tuples."""
    pairs = [(timing.one_way_latency(hops), hops) for hops in range(max_hops + 1)]
    pairs.append((timing.local_delivery_ns, 0))
    return tuple(pairs)


class DataNetwork(Component):
    """Delivers unicast messages after the unloaded topology latency.

    Receivers register a per-node handler with :meth:`attach`.

    Unloaded routes are static, so each source's ``(latency, hops)`` pairs
    are computed once, on its first send, into a row indexed by
    destination.  Networks sharing a topology and timing (the directory
    protocols' three virtual networks) share one row table via ``routes``.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        timing: NetworkTiming,
        accountant: TrafficAccountant,
        perturbation: Optional[PerturbationModel] = None,
        name: str = "data-network",
        routes: Optional[list] = None,
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
        #: src -> None until src's first send, then a list indexed by dst
        #: of shared ``(latency, hops)`` pairs (see :func:`_route_pairs`).
        self._rows: list[Optional[list[tuple[int, int]]]] = (
            routes if routes is not None else [None] * topology.num_endpoints
        )
        self._record_traffic = accountant.record
        #: Pre-bound push: each delivery is one append to the destination
        #: tick's kernel lane -- no per-send closure.
        self._schedule = sim.schedule

    # -------------------------------------------------------------- receivers
    def attach(self, node: int, handler: DeliveryCallback) -> None:
        """Register the delivery handler for endpoint ``node``."""
        self._receivers[node] = handler

    # ----------------------------------------------------------------- sends
    def _prepare_send(self, message: Message) -> tuple[DeliveryCallback, int]:
        """Per-send prologue of ``PointToPointOrderedNetwork.send``: resolve
        the handler, read the unloaded latency from the source's route row,
        add any perturbation, and account the traffic.  Returns
        ``(handler, latency)``.  :meth:`send` inlines the same steps.
        """
        if message.dst is None:
            raise ValueError(f"{self.name} only carries unicast messages")
        handler = self._receivers.get(message.dst)
        if handler is None:
            raise ValueError(
                f"{self.name}: no receiver attached for node {message.dst}"
            )
        row = self._rows[message.src]
        if row is None:
            row = self._fill_row(message.src)
        latency, traversals = row[message.dst]
        perturbation = self._active_perturbation
        if perturbation is not None:
            latency += perturbation.response_delay()
        self._record_traffic(message, traversals)
        return handler, latency

    def send(self, message: Message) -> None:
        """Send ``message`` to the handler registered for ``message.dst``.

        Messages whose source and destination are the same node are
        delivered locally (zero link traversals).

        The ``_prepare_send`` prologue is inlined here: this is the
        simulator's hottest function after the kernel dispatch loop, and
        the extra call layer costs more than the shared code saves.
        """
        dst = message.dst
        if dst is None:
            raise ValueError(f"{self.name} only carries unicast messages")
        handler = self._receivers.get(dst)
        if handler is None:
            raise ValueError(f"{self.name}: no receiver attached for node {dst}")
        row = self._rows[message.src]
        if row is None:
            row = self._fill_row(message.src)
        latency, traversals = row[dst]
        perturbation = self._active_perturbation
        if perturbation is not None:
            latency += perturbation.response_delay()
        self._record_traffic(message, traversals)
        self._schedule(latency, handler, message)

    def latency(self, src: int, dst: int) -> int:
        """Unloaded latency between two endpoints (no perturbation)."""
        row = self._rows[src]
        if row is None:
            row = self._fill_row(src)
        return row[dst][0]

    # --------------------------------------------------------------- helpers
    def _fill_row(self, src: int) -> list[tuple[int, int]]:
        topology = self.topology
        pairs = _route_pairs(self.timing, topology.max_hops)
        hop_count = topology.hop_count
        row = [pairs[hop_count(src, dst)] for dst in range(topology.num_endpoints)]
        row[src] = pairs[-1]
        self._rows[src] = row
        return row
