"""The opt-in ``miss_observer`` of the cache controllers.

A controller keeps counts and adds to the system's one set of missed
blocks, never a record per miss.  A :class:`~repro.protocols.base.MissRecord` is built only for an
installed observer, which then sees every completed miss exactly once.
"""

import pytest

from repro.protocols.base import MissSource
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile

from tests.conftest import ALL_PROTOCOLS, build_and_run, miss_records

PROFILE = get_profile("oltp").scaled(0.02)


def test_no_observer_is_installed_by_default():
    config = SystemConfig(protocol="diropt")
    system = SystemBuilder(config).build(build_streams(PROFILE, config))
    assert all(controller.miss_observer is None for controller in system.controllers)


@pytest.mark.parametrize("protocol", ALL_PROTOCOLS)
def test_observer_sees_each_completed_miss_once(protocol):
    streams = build_streams(PROFILE, SystemConfig(protocol=protocol))
    system = build_and_run(protocol, streams)

    assert sum(controller.misses for controller in system.controllers) > 0
    missed = set()
    for controller in system.controllers:
        records = miss_records(controller)
        assert len(records) == controller.misses
        assert len({(r.block, r.issue_time) for r in records}) == len(records)
        assert all(r.node == controller.node for r in records)
        assert sum(r.latency for r in records) == controller.miss_latency_total_ns
        missed.update(r.block for r in records)
        assert controller.cache_to_cache_misses == sum(
            r.source is MissSource.CACHE for r in records
        )
    assert missed == system.missed_blocks
