"""The point-to-point ordered virtual network of DirOpt.

Section 4.2: "The directory protocols use three virtual networks: an
unordered request network, a network for requests forwarded by the directory
to processors, and an unordered network for responses [...].  The forwarded
request virtual network is unordered for DirClassic and point-to-point
ordered for DirOpt."

The unordered virtual networks are plain
:class:`~repro.network.data_network.DataNetwork` instances.  All three share
one :class:`~repro.network.link.TrafficAccountant`: the paper charges all
virtual networks to the same physical links.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.network.data_network import DataNetwork, DeliveryCallback
from repro.network.link import TrafficAccountant
from repro.network.message import Message
from repro.network.timing import NetworkTiming
from repro.network.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.randomness import PerturbationModel


class PointToPointOrderedNetwork(DataNetwork):
    """A virtual network that preserves per (src, dst) pair FIFO order.

    DirOpt relies on this property for its forwarded-request network so that
    it can avoid NACKs: two forwards from the same directory to the same
    cache are observed in the order the directory sent them.
    """

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        timing: NetworkTiming,
        accountant: TrafficAccountant,
        perturbation: Optional[PerturbationModel] = None,
        name: str = "ordered-vnet",
        routes: Optional[dict] = None,
    ) -> None:
        super().__init__(
            sim,
            topology,
            timing,
            accountant,
            perturbation=perturbation,
            name=name,
            routes=routes,
        )
        self._last_delivery: Dict[Tuple[int, int], int] = {}

    def send(
        self,
        message: Message,
        on_deliver: Optional[DeliveryCallback] = None,
    ) -> int:
        handler, latency = self._prepare_send(message, on_deliver)
        now = self.sim.now
        message.sent_at = now
        pair = (message.src, message.dst)
        natural_delivery = now + latency
        ordered_delivery = max(natural_delivery, self._last_delivery.get(pair, 0))
        self._last_delivery[pair] = ordered_delivery
        self.sim.schedule_at(ordered_delivery, handler, message)
        return ordered_delivery
