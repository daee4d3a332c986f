"""The data network's per-source route rows.

Each source's row is filled on its first send and holds, per destination,
one of the shared ``(latency, hops)`` pairs.  These tests check every
(src, dst) pair of both topologies at the paper's 16 nodes and at the
256 nodes of the ``dir256`` benchmark.
"""

import pytest

from repro.network import make_topology
from repro.network.data_network import DataNetwork
from repro.network.link import TrafficAccountant
from repro.network.timing import NetworkTiming
from repro.sim.kernel import Simulator
from repro.system.builder import SystemBuilder
from repro.system.config import SystemConfig

from tests.conftest import empty_streams

CELLS = [
    (network, num_nodes)
    for network in ("butterfly", "torus")
    for num_nodes in (16, 256)
]
#: A nonzero local latency, so a local pair cannot pass as a 0-hop route.
TIMING = NetworkTiming(overhead_ns=4, switch_ns=15, local_delivery_ns=2)


@pytest.mark.parametrize("network,num_nodes", CELLS)
def test_every_pair_has_the_unloaded_latency(network, num_nodes):
    topology = make_topology(network, num_nodes)
    data_network = DataNetwork(
        Simulator(), topology, TIMING, TrafficAccountant(topology.num_links)
    )
    for src in range(num_nodes):
        for dst in range(num_nodes):
            expected = (
                TIMING.local_delivery_ns
                if src == dst
                else TIMING.one_way_latency(topology.hop_count(src, dst))
            )
            assert data_network.latency(src, dst) == expected, (src, dst)


@pytest.mark.parametrize("network,num_nodes", CELLS)
def test_directory_networks_share_one_row_table_of_shared_pairs(network, num_nodes):
    config = SystemConfig(protocol="diropt", network=network, num_nodes=num_nodes)
    system = SystemBuilder(config).build(empty_streams(num_nodes))
    controller = system.controllers[0]
    networks = (
        controller.request_network,
        controller.forward_network,
        controller.response_network,
    )
    rows = networks[0]._rows
    assert all(vnet._rows is rows for vnet in networks)
    assert rows == [None] * num_nodes

    # Fill the rows through all three networks in turn: they still hold
    # only the shared pairs.
    for src in range(num_nodes):
        networks[src % 3].latency(src, 0)
    pairs = {id(pair): pair for row in rows for pair in row}
    assert len(pairs) <= system.topology.max_hops + 2
    assert len(set(pairs.values())) == len(pairs)
