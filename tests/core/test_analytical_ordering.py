"""Tests for the closed-form address network and its agreement with the
detailed token-passing model."""

import pytest

from repro.core.analytical_ordering import AnalyticalTimestampNetwork
from repro.core.timestamp_network import TimestampAddressNetwork
from repro.network import make_topology
from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessageKind, SanitizedMessagePool
from repro.network.timing import NetworkTiming
from repro.sim.kernel import Simulator


def run_analytical(topology_name, injections, slack=0):
    topology = make_topology(topology_name)
    sim = Simulator()
    accountant = TrafficAccountant(num_links=topology.num_links)
    network = AnalyticalTimestampNetwork(sim, topology, NetworkTiming(),
                                         accountant=accountant,
                                         default_slack=slack)
    observations = {endpoint: [] for endpoint in topology.endpoints()}
    for endpoint in topology.endpoints():
        network.attach(endpoint,
                       lambda d, e=endpoint: observations[e].append(d))
    for index, (source, time) in enumerate(injections):
        message = Message(MessageKind.GETS, src=source, dst=None, block=index)
        sim.schedule_at(time, lambda m=message: network.broadcast(m))
    sim.run()
    return topology, network, accountant, observations


class TestAnalyticalNetwork:
    def test_every_endpoint_processes_every_broadcast(self):
        _t, _n, _a, obs = run_analytical("butterfly", [(0, 0), (3, 10)])
        assert all(len(deliveries) == 2 for deliveries in obs.values())

    def test_total_order_consistent(self):
        injections = [(1, 0), (14, 0), (7, 5), (7, 80), (2, 80)]
        _t, _n, _a, obs = run_analytical("torus", injections)
        reference = [d.message.msg_id for d in obs[0]]
        for deliveries in obs.values():
            assert [d.message.msg_id for d in deliveries] == reference

    def test_ordering_latency_formula(self):
        topology, network, _a, obs = run_analytical("butterfly", [(0, 0)])
        # Dovh + (Dmax + S + margin) * Dswitch = 4 + 4*15 = 64.
        assert network.ordering_latency() == 64
        assert obs[0][0].ordered_time == 64

    def test_ordering_latency_with_slack(self):
        _t, network, _a, _obs = run_analytical("torus", [(0, 0)], slack=2)
        # 4 + (4 + 2 + 1) * 15 = 109.
        assert network.ordering_latency() == 109

    def test_arrival_times_match_topology(self):
        topology, network, _a, obs = run_analytical("torus", [(0, 0)])
        for endpoint, deliveries in obs.items():
            expected = 4 + 15 * topology.broadcast_arrival_hops(0, endpoint)
            assert deliveries[0].arrival_time == expected
            assert network.arrival_latency(0, endpoint) == expected

    def test_traffic_recorded_once_per_broadcast(self):
        _t, _n, accountant, _obs = run_analytical("butterfly", [(0, 0), (1, 1)])
        assert accountant.total_bytes() == 2 * 21 * 8

    def test_attach_rejects_bad_endpoint(self):
        topology = make_topology("torus")
        network = AnalyticalTimestampNetwork(Simulator(), topology)
        with pytest.raises(ValueError):
            network.attach(99, lambda d: None)

    def test_negative_slack_rejected(self):
        topology = make_topology("torus")
        sim = Simulator()
        network = AnalyticalTimestampNetwork(sim, topology)
        network.attach(0, lambda d: None)
        with pytest.raises(ValueError):
            network.broadcast(Message(MessageKind.GETS, 0, None, 1), slack=-1)


def home_of(block):
    """Toy interleaving for the filter tests: block b is homed at b % 16."""
    return block % 16


def build_filtered(pool=None):
    """16-endpoint torus network with a home resolver, so the snoop filter
    is on.  Returns the simulator, the network and one shared call log of
    ``(endpoint, block)`` pairs in delivery order."""
    topology = make_topology("torus")
    sim = Simulator()
    network = AnalyticalTimestampNetwork(
        sim, topology, NetworkTiming(), message_pool=pool, home_resolver=home_of
    )
    log = []
    for endpoint in topology.endpoints():
        network.attach(
            endpoint, lambda d, e=endpoint: log.append((e, d.message.block))
        )
    return sim, network, log


class TestSnoopFilter:
    def broadcast_all(self, sim, network, sends, pool=None):
        for source, block in sends:
            if pool is None:
                message = Message(MessageKind.GETS, src=source, dst=None, block=block)
            else:
                message = pool.acquire(MessageKind.GETS, source, None, block)
            network.broadcast(message)
            sim.run()

    def test_endpoint_sees_only_home_source_and_interest(self):
        sim, network, log = build_filtered()
        network.interest[40] = 1 << 9
        # (source, block): home of block b is b % 16.
        sends = [(0, 18), (5, 33), (1, 40), (3, 4), (7, 25)]
        self.broadcast_all(sim, network, sends)
        seen = {e: [b for (d, b) in log if d == e] for e in (2, 5, 9)}
        assert seen[2] == [18]  # home of 18 only
        assert seen[5] == [33]  # source of the (5, 33) broadcast only
        assert seen[9] == [40, 25]  # interest bit, then home of 25
        # The counter still counts logical deliveries: every endpoint.
        assert network.deliveries == len(sends) * 16

    def test_always_mask_forces_full_fanout(self):
        sim, network, log = build_filtered()
        network.always_mask = (1 << 16) - 1
        self.broadcast_all(sim, network, [(0, 18), (5, 33)])
        assert log == [(e, 18) for e in range(16)] + [(e, 33) for e in range(16)]

    def test_deliveries_stay_in_ascending_endpoint_order(self):
        sim, network, log = build_filtered()
        network.interest[3] = 1 << 14 | 1 << 0 | 1 << 7
        self.broadcast_all(sim, network, [(11, 3)])
        assert [e for e, _b in log] == [0, 3, 7, 11, 14]

    def test_interest_changes_take_effect_on_the_next_broadcast(self):
        sim, network, log = build_filtered()
        network.interest[16] = 1 << 4
        self.broadcast_all(sim, network, [(1, 16)])
        del network.interest[16]
        self.broadcast_all(sim, network, [(1, 16)])
        assert [b for (e, b) in log if e == 4] == [16]

    def test_pooled_shell_released_once_after_filtered_fanout(self):
        # The checked pool raises on a double release and tracks live shells.
        pool = SanitizedMessagePool()
        sim, network, log = build_filtered(pool=pool)
        self.broadcast_all(sim, network, [(1, 16), (6, 3)], pool=pool)
        assert [e for e, b in log if b == 16] == [0, 1]
        pool.assert_no_leaks()


class TestModelAgreement:
    """The analytical model must agree with the detailed token network."""

    INJECTIONS = [(0, 0), (5, 0), (3, 70), (12, 200), (7, 200), (0, 330)]

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_same_total_order(self, topology_name):
        _t, _n, _a, analytic = run_analytical(topology_name, self.INJECTIONS)

        topology = make_topology(topology_name)
        sim = Simulator()
        detailed_net = TimestampAddressNetwork(sim, topology, NetworkTiming())
        detailed = {endpoint: [] for endpoint in topology.endpoints()}
        for endpoint in topology.endpoints():
            detailed_net.attach(endpoint,
                                lambda d, e=endpoint: detailed[e].append(d))
        detailed_net.start()
        for index, (source, time) in enumerate(self.INJECTIONS):
            message = Message(MessageKind.GETS, src=source, dst=None, block=index)
            sim.schedule_at(time, lambda m=message: detailed_net.broadcast(m))
        sim.run(until=20_000)

        analytic_order = [d.message.block for d in analytic[0]]
        detailed_order = [d.message.block for d in detailed[0]]
        assert analytic_order == detailed_order

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_similar_ordering_latency(self, topology_name):
        """Ordering instants agree to within one token interval."""
        _t, _n, _a, analytic = run_analytical(topology_name, [(2, 0)])

        topology = make_topology(topology_name)
        sim = Simulator()
        detailed_net = TimestampAddressNetwork(sim, topology, NetworkTiming())
        observed = []
        detailed_net.attach(0, lambda d: observed.append(d))
        detailed_net.start()
        sim.schedule_at(0, lambda: detailed_net.broadcast(
            Message(MessageKind.GETS, src=2, dst=None, block=0)))
        sim.run(until=5_000)

        assert abs(analytic[0][0].ordered_time - observed[0].ordered_time) <= 15
