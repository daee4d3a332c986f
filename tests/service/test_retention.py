"""Bounded job retention: the manager holds every live job plus the last
``RETAINED_TERMINAL_JOBS`` finished ones, each compacted to its event log.

Every test runs on the in-process test backend with the bound patched to
:data:`BOUND`: thousands of cache hits never hold more than the bound
plus the live jobs; an evicted handle is garbage; queued jobs are never
evicted however many jobs finish around them; a finished handle keeps
no config, profile or per-replica results; and any number of concurrent
or late ``events()`` consumers see the identical sequence.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import pytest

from repro.api.spec import ExperimentSpec
from repro.service import manager as manager_module
from repro.service.cache import ResultCache
from repro.service.events import JobAdmitted, JobCompleted
from repro.service.manager import JobCancelledError, JobManager, JobState
from tests.service.backends import InlinePoolBackend

BOUND = 8

SPEC = ExperimentSpec.make("oltp", scale=0.05)

#: Long enough for any step below, short enough that a hang fails fast.
TIMEOUT_S = 30.0


@pytest.fixture(autouse=True)
def small_bound(monkeypatch):
    monkeypatch.setattr(manager_module, "RETAINED_TERMINAL_JOBS", BOUND)


def _live(manager: JobManager) -> int:
    live = (JobState.QUEUED, JobState.RUNNING)
    return sum(handle.state in live for handle in manager.jobs.values())


async def _warm(manager: JobManager) -> None:
    """Compute ``SPEC`` once so later submissions of it are cache hits."""
    handle = await manager.submit_async(SPEC)
    await asyncio.wait_for(handle.result(), TIMEOUT_S)


class TestBoundedRegistry:
    def test_cache_hits_never_exceed_the_bound_plus_live_jobs(self):
        submissions = 5000

        async def scenario():
            manager = JobManager(backend=InlinePoolBackend(), cache=ResultCache())
            async with manager:
                await _warm(manager)
                peak = 0
                for _ in range(submissions):
                    handle = await manager.submit_async(SPEC)
                    assert handle.state is JobState.COMPLETED
                    assert len(manager.jobs) <= BOUND + _live(manager)
                    peak = max(peak, len(manager.jobs))
                return manager, peak

        manager, peak = asyncio.run(scenario())
        assert peak == BOUND
        assert manager.backend.submissions == 1
        snapshot = manager.snapshot()
        assert snapshot["jobs"]["jobs_retained"] == len(manager.jobs) == BOUND
        assert snapshot["jobs"]["jobs_evicted"] == submissions + 1 - BOUND
        # The newest finished jobs are the ones kept.
        kept = range(submissions + 2 - BOUND, submissions + 2)
        assert set(manager.jobs) == {f"job-{number}" for number in kept}

    def test_evicted_handles_are_garbage(self):
        submissions = 200

        async def scenario():
            manager = JobManager(backend=InlinePoolBackend(), cache=ResultCache())
            async with manager:
                await _warm(manager)
                refs = [
                    weakref.ref(await manager.submit_async(SPEC))
                    for _ in range(submissions)
                ]
                return manager, refs

        manager, refs = asyncio.run(scenario())
        gc.collect()
        alive = [ref() for ref in refs if ref() is not None]
        assert len(alive) == BOUND
        assert {handle.job_id for handle in alive} <= set(manager.jobs)

    def test_queued_jobs_are_never_evicted(self):
        live_jobs = 3 * BOUND
        finished_jobs = 2 * BOUND

        async def scenario():
            manager = JobManager(backend=InlinePoolBackend(), max_pending_cost=None)
            async with manager:
                manager.scheduler.hold()
                live = [await manager.submit_async(SPEC) for _ in range(live_jobs)]
                for _ in range(finished_jobs):
                    assert (await manager.submit_async(SPEC)).cancel()
                held = set(manager.jobs)
                for handle in live:
                    handle.cancel()
                manager.scheduler.release()
                await asyncio.wait_for(manager.drain(), TIMEOUT_S)
                return live, held

        live, held = asyncio.run(scenario())
        assert {handle.job_id for handle in live} <= held
        assert len(held) == live_jobs + BOUND


class TestCompactHandle:
    def test_a_finished_handle_drops_config_profile_and_replica_results(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)

        async def scenario():
            async with JobManager(backend=InlinePoolBackend()) as manager:
                handle = await manager.submit_async(spec)
                assert handle.config is not None and handle.keys is not None
                result = await asyncio.wait_for(handle.result(), TIMEOUT_S)
                cancelled = await manager.submit_async(spec)
                cancelled.cancel()
                await asyncio.wait_for(manager.drain(), TIMEOUT_S)
                return handle, result, cancelled

        handle, result, cancelled = asyncio.run(scenario())
        for finished in (handle, cancelled):
            assert finished.config is None
            assert finished.profile is None
            assert finished.keys is None
            assert finished._results is None
            assert finished.total_replicas == 2
        assert handle.completed_replicas == 2
        assert result.replicas == 2
        assert asyncio.run(handle.result()) == result
        with pytest.raises(JobCancelledError):
            asyncio.run(cancelled.result())


class TestReplayableEvents:
    def test_concurrent_and_late_consumers_see_identical_sequences(self):
        spec = SPEC.with_overrides(perturbation_replicas=3)

        async def collect(handle):
            return [event async for event in handle.events()]

        async def scenario():
            async with JobManager(backend=InlinePoolBackend()) as manager:
                handle = await manager.submit_async(spec)
                first = asyncio.create_task(collect(handle))
                second = asyncio.create_task(collect(handle))
                # A follower cancelled mid-wait must not disturb the others.
                abandoned = asyncio.create_task(collect(handle))
                await asyncio.sleep(0)
                abandoned.cancel()
                streams = await asyncio.wait_for(
                    asyncio.gather(first, second), TIMEOUT_S
                )
                late = await asyncio.wait_for(collect(handle), TIMEOUT_S)
                return [*streams, late]

        first, second, late = asyncio.run(scenario())
        assert first == second == late
        assert isinstance(first[0], JobAdmitted)
        assert isinstance(first[-1], JobCompleted)
        assert len(first) == 2 + 2 * 3
