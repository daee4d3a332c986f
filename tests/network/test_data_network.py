"""Unit tests for the unordered data network and the directory VNs."""

import pytest

from repro.network.data_network import DataNetwork
from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessageKind
from repro.network.timing import NetworkTiming
from repro.network.virtual_network import PointToPointOrderedNetwork
from repro.sim.randomness import DeterministicRandom, PerturbationModel
from repro.system.builder import SystemBuilder
from repro.system.config import SystemConfig

from tests.conftest import empty_streams


def make_network(sim, topology, cls=DataNetwork, perturbation=None):
    accountant = TrafficAccountant(num_links=topology.num_links)
    network = cls(sim, topology, NetworkTiming(), accountant,
                  perturbation=perturbation)
    return network, accountant


class TestDataNetwork:
    def test_unloaded_latency_butterfly(self, sim, butterfly):
        network, _ = make_network(sim, butterfly)
        arrivals = []
        network.send(Message(MessageKind.DATA, 0, 5, 1),
                     lambda m: arrivals.append(sim.now))
        sim.run()
        assert arrivals == [49]

    def test_unloaded_latency_torus_depends_on_distance(self, sim, torus):
        network, _ = make_network(sim, torus)
        assert network.latency(0, 1) == 4 + 15
        assert network.latency(0, 10) == 4 + 4 * 15
        assert network.latency(3, 3) == 0

    def test_local_messages_use_no_links(self, sim, torus):
        network, accountant = make_network(sim, torus)
        delivered = []
        network.send(Message(MessageKind.DATA, 2, 2, 9), delivered.append)
        sim.run()
        assert len(delivered) == 1
        assert accountant.total_bytes() == 0

    def test_traffic_recorded_per_hop(self, sim, torus):
        network, accountant = make_network(sim, torus)
        network.send(Message(MessageKind.DATA, 0, 2, 9), lambda m: None)
        sim.run()
        assert accountant.total_bytes() == 2 * 72

    def test_attached_receiver_gets_messages(self, sim, butterfly):
        network, _ = make_network(sim, butterfly)
        received = []
        network.attach(7, received.append)
        network.send(Message(MessageKind.DATA, 0, 7, 1))
        sim.run()
        assert len(received) == 1

    def test_missing_receiver_raises(self, sim, butterfly):
        network, _ = make_network(sim, butterfly)
        with pytest.raises(ValueError):
            network.send(Message(MessageKind.DATA, 0, 7, 1))

    def test_broadcast_rejected(self, sim, butterfly):
        network, _ = make_network(sim, butterfly)
        with pytest.raises(ValueError):
            network.send(Message(MessageKind.GETS, 0, None, 1), lambda m: None)

    def test_perturbation_adds_delay(self, sim, butterfly):
        perturbation = PerturbationModel(DeterministicRandom(3), max_delay_ns=5)
        network, _ = make_network(sim, butterfly, perturbation=perturbation)
        arrivals = []
        for _ in range(30):
            network.send(Message(MessageKind.DATA, 0, 5, 1),
                         lambda m: arrivals.append(sim.now))
        sim.run()
        assert min(arrivals) >= 49
        assert max(arrivals) <= 49 + 5
        assert len(set(arrivals)) > 1


class TestOrderedVirtualNetwork:
    def test_per_pair_fifo_order_preserved(self, sim, torus):
        perturbation = PerturbationModel(DeterministicRandom(7), max_delay_ns=40)
        network, _ = make_network(sim, torus, cls=PointToPointOrderedNetwork,
                                  perturbation=perturbation)
        deliveries = []
        for index in range(20):
            network.send(Message(MessageKind.FORWARD_GETS, 0, 5, index),
                         lambda m: deliveries.append(m.block))
        sim.run()
        assert deliveries == sorted(deliveries)

    def test_different_pairs_are_independent(self, sim, torus):
        network, _ = make_network(sim, torus, cls=PointToPointOrderedNetwork)
        deliveries = []
        network.send(Message(MessageKind.FORWARD_GETS, 0, 10, 1),
                     lambda m: deliveries.append(("far", sim.now)))
        network.send(Message(MessageKind.FORWARD_GETS, 0, 1, 2),
                     lambda m: deliveries.append(("near", sim.now)))
        sim.run()
        assert deliveries[0][0] == "near"

    @pytest.mark.parametrize("protocol,forward_class", [
        ("dirclassic", DataNetwork),
        ("diropt", PointToPointOrderedNetwork),
    ])
    def test_directory_networks(self, protocol, forward_class):
        # Requests and responses ride plain data networks; only DirOpt's
        # forwarded-request network keeps per-pair order.
        config = SystemConfig(protocol=protocol)
        system = SystemBuilder(config).build(empty_streams(16))
        controller = system.controllers[0]
        assert type(controller.request_network) is DataNetwork
        assert type(controller.forward_network) is forward_class
        assert type(controller.response_network) is DataNetwork
        assert controller.request_network.name == "dir-request-vnet"
        assert controller.forward_network.name == "dir-forward-vnet"
        assert controller.response_network.name == "dir-response-vnet"
