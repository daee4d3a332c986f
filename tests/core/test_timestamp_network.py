"""Tests for the detailed (event-accurate) timestamp address network.

These cover the paper's central correctness claim: whatever order and time
transactions are *delivered*, every endpoint *processes* them in the same
total order, and no transaction is processed before it has arrived.
"""

import pytest

from repro.core.timestamp_network import TimestampAddressNetwork
from repro.network import make_topology
from repro.network.link import TrafficAccountant
from repro.network.message import Message, MessageKind
from repro.network.timing import NetworkTiming
from repro.sim.kernel import Simulator
from repro.sim.randomness import DeterministicRandom


def run_broadcasts(topology_name, injections, hold_probability=0.0,
                   default_slack=0, seed=0, horizon=20_000):
    """Inject (source, time) broadcasts and return per-endpoint observations."""
    topology = make_topology(topology_name)
    sim = Simulator()
    accountant = TrafficAccountant(num_links=topology.num_links)
    network = TimestampAddressNetwork(
        sim, topology, NetworkTiming(), accountant=accountant,
        default_slack=default_slack, hold_probability=hold_probability,
        rng=DeterministicRandom(seed))
    observations = {endpoint: [] for endpoint in topology.endpoints()}

    def make_handler(endpoint):
        def handler(delivery):
            observations[endpoint].append(delivery)
        return handler

    for endpoint in topology.endpoints():
        network.attach(endpoint, make_handler(endpoint))
    network.start()
    for index, (source, time) in enumerate(injections):
        message = Message(MessageKind.GETS, src=source, dst=None, block=index)
        sim.schedule_at(time, lambda m=message: network.broadcast(m))
    sim.run(until=horizon)
    return topology, network, accountant, observations


class TestSingleBroadcast:
    def test_reaches_every_endpoint_once(self):
        topology, _net, _acct, obs = run_broadcasts("butterfly", [(3, 0)])
        assert all(len(deliveries) == 1 for deliveries in obs.values())

    def test_arrival_precedes_or_equals_processing(self):
        for name in ("butterfly", "torus"):
            _t, _n, _a, obs = run_broadcasts(name, [(5, 7)])
            for deliveries in obs.values():
                for delivery in deliveries:
                    assert delivery.arrival_time <= delivery.ordered_time

    def test_butterfly_arrival_time_is_49ns(self):
        _t, _n, _a, obs = run_broadcasts("butterfly", [(3, 0)])
        for endpoint, deliveries in obs.items():
            assert deliveries[0].arrival_time == 49

    def test_torus_arrival_time_matches_distance(self):
        topology, _n, _a, obs = run_broadcasts("torus", [(0, 0)])
        for endpoint, deliveries in obs.items():
            hops = topology.hop_count(0, endpoint)
            assert deliveries[0].arrival_time == 4 + 15 * hops

    def test_traffic_accounts_the_broadcast_tree(self):
        topology, _n, accountant, _obs = run_broadcasts("torus", [(0, 0)])
        assert accountant.total_bytes() == 15 * 8
        topology, _n, accountant, _obs = run_broadcasts("butterfly", [(0, 0)])
        assert accountant.total_bytes() == 21 * 8

    def test_processing_gt_identical_at_every_endpoint(self):
        _t, _n, _a, obs = run_broadcasts("torus", [(6, 11)])
        logical_times = {deliveries[0].logical_time
                         for deliveries in obs.values()}
        assert len(logical_times) == 1


class TestTotalOrder:
    INJECTIONS = [(0, 0), (5, 0), (3, 7), (12, 20), (7, 20), (0, 33),
                  (15, 40), (8, 41), (8, 55), (1, 60)]

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_all_endpoints_see_identical_order(self, topology_name):
        _t, _n, _a, obs = run_broadcasts(topology_name, self.INJECTIONS)
        reference = [d.message.msg_id for d in obs[0]]
        assert len(reference) == len(self.INJECTIONS)
        for endpoint, deliveries in obs.items():
            assert [d.message.msg_id for d in deliveries] == reference

    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_same_logical_time_at_every_endpoint(self, topology_name):
        _t, _n, _a, obs = run_broadcasts(topology_name, self.INJECTIONS)
        for index in range(len(self.INJECTIONS)):
            logical = {obs[endpoint][index].logical_time for endpoint in obs}
            assert len(logical) == 1

    def test_simultaneous_injections_break_ties_by_source(self):
        _t, _n, _a, obs = run_broadcasts("butterfly", [(9, 0), (2, 0), (4, 0)])
        sources = [d.message.src for d in obs[0]]
        assert sources == [2, 4, 9]

    @pytest.mark.parametrize("slack", [0, 1, 3])
    def test_slack_delays_processing_but_keeps_order(self, slack):
        _t, _n, _a, obs_zero = run_broadcasts("torus", self.INJECTIONS)
        _t, _n, _a, obs_slack = run_broadcasts("torus", self.INJECTIONS,
                                               default_slack=slack)
        assert ([d.message.src for d in obs_zero[0]]
                == [d.message.src for d in obs_slack[0]])
        assert all(b.ordered_time >= a.ordered_time
                   for a, b in zip(obs_zero[0], obs_slack[0]))


class TestUnderContention:
    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_order_survives_switch_buffering(self, topology_name, seed):
        rng = DeterministicRandom(seed)
        injections = [(rng.uniform_int(0, 15), rng.uniform_int(0, 1500))
                      for _ in range(40)]
        _t, network, _a, obs = run_broadcasts(
            topology_name, injections, hold_probability=0.4, seed=seed,
            default_slack=2, horizon=40_000)
        reference = [d.message.msg_id for d in obs[0]]
        assert len(reference) == len(injections)
        for deliveries in obs.values():
            assert [d.message.msg_id for d in deliveries] == reference
        assert network.held_transactions > 0

    def test_arrival_never_after_processing_even_with_holds(self):
        rng = DeterministicRandom(9)
        injections = [(rng.uniform_int(0, 15), rng.uniform_int(0, 800))
                      for _ in range(25)]
        _t, _n, _a, obs = run_broadcasts("torus", injections,
                                         hold_probability=0.5, seed=9,
                                         horizon=40_000)
        for deliveries in obs.values():
            for delivery in deliveries:
                assert delivery.arrival_time <= delivery.ordered_time


class TestMessageLifetime:
    @pytest.mark.parametrize("topology_name", ["butterfly", "torus"])
    def test_every_endpoint_keeps_the_broadcast_message_itself(
            self, topology_name):
        rng = DeterministicRandom(5)
        injections = [(rng.uniform_int(0, 15), rng.uniform_int(0, 600))
                      for _ in range(20)]
        _t, _n, _a, obs = run_broadcasts(
            topology_name, injections, hold_probability=0.4, seed=5,
            default_slack=1, horizon=40_000)
        by_block = {}
        for deliveries in obs.values():
            assert len(deliveries) == len(injections)
            for delivery in deliveries:
                message = delivery.message
                # One message object per broadcast, shared by every
                # endpoint and still holding what was sent.
                assert by_block.setdefault(message.block, message) is message
                assert message.src == injections[message.block][0]
                assert (message.kind, message.dst) == (MessageKind.GETS, None)
        assert sorted(by_block) == list(range(len(injections)))
        kept = [d for deliveries in obs.values() for d in deliveries]
        assert len({id(d) for d in kept}) == len(kept)


class TestGuarantees:
    def test_guarantee_time_advances_with_tokens(self):
        topology = make_topology("torus")
        sim = Simulator()
        network = TimestampAddressNetwork(sim, topology, NetworkTiming())
        network.attach(0, lambda d: None)
        network.start()
        sim.run(until=150)
        # One token wave every Dswitch = 15 ns.
        assert network.guarantee_time(0) >= 8

    def test_invalid_hold_probability_rejected(self):
        topology = make_topology("torus")
        with pytest.raises(ValueError):
            TimestampAddressNetwork(Simulator(), topology, NetworkTiming(),
                                    hold_probability=1.5)
