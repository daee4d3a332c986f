"""The TS-Snoop snoop filter: differential and leak tests.

The analytical address network TS-Snoop builds has a home resolver, so it
delivers an ordered transaction only to its source, its home and the nodes
whose bit is set in its per-block ``interest`` mask.  Two properties are checked here:

* **differential** -- forcing the full fan-out (every endpoint in
  ``always_mask``, a test-only setting) gives the same ``RunResult`` as the
  filtered fan-out, with the coherence checker on, for both snooping
  protocols under SC and TSO on both topologies at 16 and 64 nodes;
* **exact interest** -- after every run the interest map equals the one
  recomputed from every node's MSHRs, writeback buffer and valid lines.
  Equality, not a superset: a missed clear would let the map grow without
  bound.

Small caches force clean and dirty evictions, so the victim and
writeback-buffer clear points run.  With ``REPRO_SANITIZE=1`` the runs use
the checked message pools and assert no shell leaked once quiescent.
"""

import itertools
import os

import pytest

from repro.system.builder import SystemBuilder
from repro.system.config import SystemConfig
from repro.system.simulation import SimulationRunner
from repro.workloads.profiles import get_profile

SANITIZE = os.environ.get("REPRO_SANITIZE", "") == "1"
CELLS = list(
    itertools.product(
        ("ts-snoop", "moesi-snoop"), ("sc", "tso"), ("butterfly", "torus"), (16, 64)
    )
)
SCALE = {16: 0.05, 64: 0.02}


def recomputed_interest(controllers):
    """block -> bitmask of the nodes holding an MSHR, a writeback-buffer
    entry or a valid line for it."""
    expected = {}
    for controller in controllers:
        held = (
            set(controller.mshrs.blocks_in_flight())
            | set(controller.writeback_buffer)
            | set(controller.cache.resident_blocks())
        )
        for block in held:
            expected[block] = expected.get(block, 0) | 1 << controller.node
    return expected


def run_cell(monkeypatch, protocol, consistency, network, num_nodes, full_fanout):
    """Run one cell; return its RunResult and the system it ran on."""
    built = []
    build = SystemBuilder.build

    def capturing_build(self, *args, **kwargs):
        system = build(self, *args, **kwargs)
        if full_fanout:
            address_network = system.controllers[0].address_network
            address_network.always_mask = (1 << num_nodes) - 1
        built.append(system)
        return system

    config = SystemConfig(
        protocol=protocol,
        consistency=consistency,
        network=network,
        num_nodes=num_nodes,
        cache_size_bytes=8 * 1024,
        enable_checker=True,
        sanitize=SANITIZE,
    )
    profile = get_profile("oltp").scaled(SCALE[num_nodes])
    with monkeypatch.context() as patch:
        patch.setattr(SystemBuilder, "build", capturing_build)
        result = SimulationRunner(config, profile).run(jobs=1)
    (system,) = built
    return result, system


def assert_exact_interest(system):
    address_network = system.controllers[0].address_network
    assert address_network.interest == recomputed_interest(system.controllers)


@pytest.mark.parametrize("protocol,consistency,network,num_nodes", CELLS)
def test_filter_matches_full_fanout(
    monkeypatch, protocol, consistency, network, num_nodes
):
    filtered, filtered_system = run_cell(
        monkeypatch, protocol, consistency, network, num_nodes, full_fanout=False
    )
    full, full_system = run_cell(
        monkeypatch, protocol, consistency, network, num_nodes, full_fanout=True
    )
    assert filtered == full
    assert filtered_system.controllers[0].address_network.always_mask == 0

    evictions = sum(
        controller.dirty_evictions
        for controller in filtered_system.controllers
    )
    assert evictions > 0, "the small cache never evicted a dirty block"
    for system in (filtered_system, full_system):
        system.checker.assert_clean()
        # Exact at the runner's end and again once fully quiescent.
        assert_exact_interest(system)
        system.sim.run()
        assert_exact_interest(system)
        if SANITIZE:
            system.message_pool.assert_no_leaks()

