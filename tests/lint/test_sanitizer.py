"""Runtime pool-sanitizer tests (``SystemConfig.sanitize``).

Unit level: the checked message pool must catch double releases (naming
both sites), foreign releases, and leaks with their acquisition sites.
System level: a full sanitized run must pass -- the ownership contract
genuinely holds at quiescence -- while an injected double release must
fail loudly.
"""

import pytest

from repro.network.message import (
    MessageKind,
    PoolSafetyError,
    SanitizedMessagePool,
)
from repro.system.builder import SystemBuilder, build_streams
from repro.system.config import SystemConfig
from repro.workloads.profiles import get_profile


class TestSanitizedMessagePool:
    def test_double_release_names_both_sites(self):
        pool = SanitizedMessagePool()
        message = pool.acquire(MessageKind.GETS, 0, 1, 2)
        pool.release(message)
        with pytest.raises(PoolSafetyError) as excinfo:
            pool.release(message)
        text = str(excinfo.value)
        assert "double release" in text
        assert "first released at" in text
        assert text.count("test_sanitizer.py") == 2

    def test_foreign_release_is_rejected(self):
        pool = SanitizedMessagePool()
        other = SanitizedMessagePool()
        message = other.acquire(MessageKind.GETS, 0, 1, 2)
        with pytest.raises(PoolSafetyError, match="did not hand out"):
            pool.release(message)

    def test_leak_report_carries_the_acquisition_site(self):
        pool = SanitizedMessagePool()
        pool.acquire(MessageKind.GETS, 0, 1, 2)
        kept = pool.acquire(MessageKind.GETM, 1, 0, 4)
        assert pool.live_messages == 2
        report = pool.leak_report()
        assert len(report) == 2
        assert all("acquired at" in line for line in report)
        assert any("test_sanitizer.py" in line for line in report)
        with pytest.raises(PoolSafetyError, match="never released"):
            pool.assert_no_leaks()
        pool.release(kept)

    def test_recycled_shell_is_tracked_afresh(self):
        pool = SanitizedMessagePool()
        first = pool.acquire(MessageKind.GETS, 0, 1, 2)
        pool.release(first)
        again = pool.acquire(MessageKind.GETM, 1, 0, 4)
        assert again is first  # recycled shell
        pool.release(again)  # no false double-release
        pool.assert_no_leaks()


def _sanitized_run(protocol="ts-snoop", workload="barnes", scale=0.01):
    config = SystemConfig(protocol=protocol, enable_checker=True, sanitize=True)
    profile = get_profile(workload).scaled(scale)
    streams = build_streams(profile, config)
    system = SystemBuilder(config).build(streams)
    for processor in system.processors:
        processor.start()
    system.sim.run()
    return system


class TestSanitizedSystemRuns:
    @pytest.mark.parametrize("protocol", ("ts-snoop", "dirclassic", "diropt"))
    def test_full_run_is_leak_free_at_quiescence(self, protocol):
        system = _sanitized_run(protocol)
        assert isinstance(system.message_pool, SanitizedMessagePool)
        assert system.all_finished()
        system.message_pool.assert_no_leaks()
        system.checker.assert_clean()

    def test_injected_double_release_fails_loudly(self):
        system = _sanitized_run()
        pool = system.message_pool
        message = pool.acquire(MessageKind.GETS, 0, None, 64)
        pool.release(message)
        with pytest.raises(PoolSafetyError, match="double release"):
            pool.release(message)

    def test_injected_leak_is_reported_with_its_site(self):
        system = _sanitized_run()
        pool = system.message_pool
        pool.acquire(MessageKind.GETS, 0, None, 64)
        with pytest.raises(PoolSafetyError) as excinfo:
            pool.assert_no_leaks()
        assert "test_sanitizer.py" in str(excinfo.value)

    def test_sanitize_preserves_observables(self):
        """The sanitizer is pure checking: same misses and finish time."""
        config = SystemConfig(protocol="ts-snoop", enable_checker=True)
        profile = get_profile("barnes").scaled(0.01)
        streams = build_streams(profile, config)

        def run(sanitize):
            cfg = config.with_options(sanitize=sanitize)
            system = SystemBuilder(cfg).build(streams)
            for processor in system.processors:
                processor.start()
            system.sim.run()
            return system

        checked, plain = run(True), run(False)
        assert checked.total_misses() == plain.total_misses()
        assert checked.finish_time() == plain.finish_time()
