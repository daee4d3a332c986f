"""Tests for the asyncio job manager.

Covers the service acceptance properties: overlapping concurrent sweeps
compute each unique replica exactly once; a cached replay performs zero
pool submissions; admission control rejects with a retry hint once the
pending-cost budget is exhausted; cancellation mid-sweep skips the
remaining replicas; cache hits resolve at admission and never wait
behind a computing miss; and every job streams its events in the
documented order.  Tests that gate, record or fail runs use the
in-process test double of :mod:`tests.service.backends`; the rest run on
the service's real worker subprocesses.
"""

from __future__ import annotations

import asyncio
import os

import pytest

from repro import api
from repro.api.spec import ExperimentSpec
from repro.parallel.jobs import ReplicaJob, execute_replica_job
from repro.service.cache import ResultCache, replica_key
from repro.service.events import (
    SOURCE_CACHE,
    SOURCE_COMPUTED,
    SOURCE_DEDUPED,
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
)
from repro.service.manager import (
    AdmissionError,
    JobCancelledError,
    JobManager,
    JobState,
    WorkerPoolBackend,
    make_backend,
    replica_cost,
)
from repro.service.metrics import validate_metrics_snapshot
from tests.service.backends import InlinePoolBackend

SCALE = 0.05

SPEC = ExperimentSpec.make("oltp", scale=SCALE)
SPEC_DIROPT = ExperimentSpec.make("oltp", protocol="diropt", scale=SCALE)
SPEC_DIRCLASSIC = ExperimentSpec.make("oltp", protocol="dirclassic", scale=SCALE)


def test_client_and_manager_share_the_cancellation_vocabulary():
    # A caller catches a client-raised cancellation by the manager's name.
    from repro import client
    from repro.service import events, manager

    assert manager.JobCancelledError is client.JobCancelledError
    assert manager.JobCancelledError is events.JobCancelledError
    assert manager.DEFAULT_CLIENT_ID == client.DEFAULT_CLIENT_ID


class GatedBackend(InlinePoolBackend):
    """Inline backend that blocks every run until the gate opens."""

    def __init__(self, max_workers: int = 1) -> None:
        super().__init__()
        self.max_workers = max_workers
        self.gate = asyncio.Event()
        self.started = 0

    async def run(self, job):
        self.started += 1
        await self.gate.wait()
        return await super().run(job)


class RecordingBackend(InlinePoolBackend):
    """Inline backend that records the protocol of every submission."""

    def __init__(self) -> None:
        super().__init__()
        self.order = []

    async def run(self, job):
        self.order.append((job.config.protocol, job.replica_index))
        return await super().run(job)


class FailingBackend(InlinePoolBackend):
    async def run(self, job):
        self.submissions += 1
        raise RuntimeError("injected backend failure")


async def _collect(handle):
    return [event async for event in handle.events()]


def _assert_stream_shape(events, terminal_type=JobCompleted):
    assert not events[0].informational and not events[-1].informational
    events = [event for event in events if not event.informational]
    assert isinstance(events[0], JobAdmitted)
    assert isinstance(events[-1], terminal_type)
    assert all(not event.terminal for event in events[1:-1])
    middle = events[1:-1]
    assert len(middle) % 2 == 0
    for index in range(0, len(middle), 2):
        assert isinstance(middle[index], ReplicaCompleted)
        assert isinstance(middle[index + 1], JobProgress)
        assert middle[index + 1].completed == index // 2 + 1


class TestSingleJob:
    def test_result_is_bit_identical_to_direct_api(self):
        async def scenario():
            async with JobManager() as manager:
                handle = await manager.submit_async(SPEC)
                await manager.drain()
                return await handle.result()

        assert asyncio.run(scenario()) == api.run_experiment(spec=SPEC)

    def test_event_stream_ordering_across_replicas(self):
        spec = SPEC.with_overrides(perturbation_replicas=3)

        async def scenario():
            async with JobManager() as manager:
                handle = await manager.submit_async(spec)
                events_task = asyncio.ensure_future(_collect(handle))
                await manager.drain()
                return await events_task, await handle.result(), manager

        events, result, manager = asyncio.run(scenario())
        _assert_stream_shape(events)
        admitted = events[0]
        assert admitted.total_replicas == 3
        replica_events = [e for e in events if isinstance(e, ReplicaCompleted)]
        assert [e.replica_index for e in replica_events] == [0, 1, 2]
        assert all(e.source == SOURCE_COMPUTED for e in replica_events)
        assert events[-1].result == result
        assert result.replicas == 3
        assert manager.metrics.jobs_completed == 1

    def test_progress_carries_partial_minimum(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)

        async def scenario():
            async with JobManager() as manager:
                handle = await manager.submit_async(spec)
                events_task = asyncio.ensure_future(_collect(handle))
                await manager.drain()
                return await events_task

        events = asyncio.run(scenario())
        progress = [e for e in events if isinstance(e, JobProgress)]
        replicas = [e for e in events if isinstance(e, ReplicaCompleted)]
        assert progress[-1].best_runtime_ns == min(e.runtime_ns for e in replicas)
        assert progress[0].total == 2

    def test_backend_failure_fails_the_job(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)

        async def scenario():
            async with JobManager(backend=FailingBackend()) as manager:
                handle = await manager.submit_async(spec)
                await manager.drain()
                events = await _collect(handle)
                return manager, handle, events

        manager, handle, events = asyncio.run(scenario())
        _assert_stream_shape(events, terminal_type=JobFailed)
        assert "injected backend failure" in events[-1].error
        assert handle.state is JobState.FAILED
        assert manager.metrics.jobs_failed == 1
        # A permanent error quarantines each replica individually; the job
        # only fails because *every* replica ended up quarantined.
        assert manager.backend.submissions == 2
        assert manager.metrics.replicas_skipped_cancelled == 0
        assert manager.metrics.replicas_quarantined == 2
        assert set(handle.quarantined) == {0, 1}
        quarantines = [e for e in events if isinstance(e, ReplicaFailed)]
        assert len(quarantines) == 2
        assert all(q.permanent and q.attempts == 1 for q in quarantines)
        with pytest.raises(RuntimeError, match="injected"):
            asyncio.run(handle.result())


class TestDeduplication:
    def test_overlapping_sweeps_compute_each_unique_replica_once(self):
        sweep_a = [SPEC, SPEC_DIROPT]
        sweep_b = [SPEC_DIROPT, SPEC_DIRCLASSIC]

        async def scenario():
            cache = ResultCache()
            async with JobManager(cache=cache) as manager:
                handles_a = [await manager.submit_async(spec) for spec in sweep_a]
                handles_b = [await manager.submit_async(spec) for spec in sweep_b]
                await manager.drain()
                results_a = [await h.result() for h in handles_a]
                results_b = [await h.result() for h in handles_b]
            return manager, results_a, results_b

        manager, results_a, results_b = asyncio.run(scenario())
        unique = {spec.label for spec in sweep_a + sweep_b}
        assert manager.backend.submissions == len(unique) == 3
        # The shared spec produced identical results for both sweeps.
        assert results_a[1] == results_b[0]
        assert manager.metrics.replicas_computed == 3
        assert manager.metrics.replicas_from_cache == 1

    def test_in_flight_replicas_are_joined_not_recomputed(self):
        async def scenario():
            backend = GatedBackend(max_workers=2)
            cache = ResultCache()
            async with JobManager(backend=backend, cache=cache) as manager:
                first = await manager.submit_async(SPEC)
                second = await manager.submit_async(SPEC)
                streams = [asyncio.ensure_future(_collect(h)) for h in (first, second)]
                while backend.started == 0:
                    await asyncio.sleep(0)
                backend.gate.set()
                await manager.drain()
                events = [await stream for stream in streams]
                results = [await first.result(), await second.result()]
            return manager, events, results

        manager, events, results = asyncio.run(scenario())
        assert manager.backend.submissions == 1
        assert results[0] == results[1]
        sources = [
            event.source
            for stream in events
            for event in stream
            if isinstance(event, ReplicaCompleted)
        ]
        assert sorted(sources) == [SOURCE_COMPUTED, SOURCE_DEDUPED]
        assert manager.metrics.replicas_deduped == 1

    def test_deduped_results_do_not_share_mutable_state(self):
        async def scenario():
            backend = GatedBackend(max_workers=2)
            async with JobManager(backend=backend, cache=ResultCache()) as manager:
                first = await manager.submit_async(SPEC)
                second = await manager.submit_async(SPEC)
                while backend.started == 0:
                    await asyncio.sleep(0)
                backend.gate.set()
                await manager.drain()
                return await first.result(), await second.result()

        one, two = asyncio.run(scenario())
        assert one == two and one is not two
        assert one.traffic_bytes_by_category is not two.traffic_bytes_by_category

    def test_cached_replay_performs_zero_pool_submissions(self):
        specs = [SPEC, SPEC_DIROPT, SPEC_DIRCLASSIC]

        async def run_sweep(cache):
            async with JobManager(cache=cache) as manager:
                handles = [await manager.submit_async(spec) for spec in specs]
                await manager.drain()
                results = [await handle.result() for handle in handles]
            return manager, results

        async def scenario():
            cache = ResultCache()
            fresh_manager, fresh = await run_sweep(cache)
            replay_manager, replayed = await run_sweep(cache)
            return fresh_manager, fresh, replay_manager, replayed

        fresh_manager, fresh, replay_manager, replayed = asyncio.run(scenario())
        assert fresh_manager.backend.submissions == len(specs)
        assert replay_manager.backend.submissions == 0
        assert replayed == fresh  # bit-identical replay, zero simulation work
        assert replay_manager.metrics.replicas_from_cache == len(specs)

    def test_cache_hit_events_are_marked(self):
        async def scenario():
            cache = ResultCache()
            async with JobManager(cache=cache) as manager:
                handle = await manager.submit_async(SPEC)
                await manager.drain()
                await handle.result()
            async with JobManager(cache=cache) as manager:
                handle = await manager.submit_async(SPEC)
                events_task = asyncio.ensure_future(_collect(handle))
                await manager.drain()
                return await events_task

        events = asyncio.run(scenario())
        replica_events = [e for e in events if isinstance(e, ReplicaCompleted)]
        assert [e.source for e in replica_events] == [SOURCE_CACHE]


def _cached(spec, indices=None):
    """A memory cache holding the replicas ``indices`` of ``spec``."""
    config, profile = spec.config(), spec.profile()
    if indices is None:
        indices = range(config.perturbation_replicas)
    cache = ResultCache()
    for index in indices:
        job = ReplicaJob(config=config, profile=profile, replica_index=index)
        cache.put(replica_key(config, profile, index), execute_replica_job(job))
    return cache


class TestAdmissionResolve:
    def test_fully_cached_job_is_terminal_when_submit_async_returns(self):
        spec = SPEC.with_overrides(perturbation_replicas=2)
        cache = _cached(spec)

        async def scenario():
            backend = InlinePoolBackend()
            async with JobManager(backend=backend, cache=cache) as manager:
                handle = await manager.submit_async(spec)
                state = handle.state
                events = await _collect(handle)
                return manager, backend, state, events, await handle.result()

        manager, backend, state, events, result = asyncio.run(scenario())
        assert state is JobState.COMPLETED
        assert [type(event) for event in events] == [
            JobAdmitted,
            ReplicaCompleted,
            JobProgress,
            ReplicaCompleted,
            JobProgress,
            JobCompleted,
        ]
        replicas = [e for e in events if isinstance(e, ReplicaCompleted)]
        assert [e.source for e in replicas] == [SOURCE_CACHE, SOURCE_CACHE]
        assert [e.replica_index for e in replicas] == [0, 1]
        assert result == api.run_experiment(spec=spec)
        assert manager.metrics.replicas_from_cache == 2
        assert manager.metrics.queue_depth == 0
        assert manager.metrics.pending_cost == 0
        assert manager.metrics.peak_queue_depth == 0
        assert backend.submissions == 0

    def test_only_uncached_replicas_enter_the_queue(self):
        spec = SPEC.with_overrides(perturbation_replicas=3)
        cache = _cached(spec, indices=[1])
        unit = replica_cost(spec.config(), spec.profile())

        async def scenario():
            backend = RecordingBackend()
            manager = JobManager(backend=backend, cache=cache)
            handle = await manager.submit_async(spec)  # workers not started yet
            queued = (manager.metrics.queue_depth, manager.metrics.pending_cost)
            async with manager:
                await manager.drain()
                events = await _collect(handle)
            return manager, backend, queued, events, await handle.result()

        manager, backend, queued, events, result = asyncio.run(scenario())
        assert queued == (2, 2 * unit)
        assert [index for _protocol, index in backend.order] == [0, 2]
        _assert_stream_shape(events)
        replicas = [e for e in events if isinstance(e, ReplicaCompleted)]
        assert [(e.replica_index, e.source) for e in replicas] == [
            (1, SOURCE_CACHE),
            (0, SOURCE_COMPUTED),
            (2, SOURCE_COMPUTED),
        ]
        assert result == api.run_experiment(spec=spec)
        assert manager.metrics.pending_cost == 0

    def test_hit_completes_while_another_clients_miss_computes(self):
        cache = _cached(SPEC)

        async def scenario():
            backend = GatedBackend()
            async with JobManager(backend=backend, cache=cache) as manager:
                miss = await manager.submit_async(SPEC_DIROPT, client_id="a")
                while backend.started == 0:
                    await asyncio.sleep(0)  # a's miss holds the only worker
                hit = await manager.submit_async(SPEC, client_id="b")
                order = []
                waits = [
                    asyncio.ensure_future(_finish(handle, order))
                    for handle in (miss, hit)
                ]
                for _ in range(100):  # a queued hit would wait here
                    if order:
                        break
                    await asyncio.sleep(0)
                backend.gate.set()
                await asyncio.gather(*waits)
                return order

        async def _finish(handle, order):
            await handle.result()
            order.append(handle.client_id)

        assert asyncio.run(scenario()) == ["b", "a"]


class TestAdmissionControl:
    def test_empty_queue_always_admits(self):
        async def scenario():
            async with JobManager(max_pending_cost=1) as manager:
                handle = await manager.submit_async(SPEC)  # cost far exceeds the budget
                await manager.drain()
                return await handle.result()

        assert asyncio.run(scenario()).references > 0

    def test_saturated_queue_rejects_with_retry_after(self):
        async def scenario():
            manager = JobManager(max_pending_cost=1)  # workers never started
            await manager.submit_async(SPEC)
            with pytest.raises(AdmissionError) as info:
                await manager.submit_async(SPEC_DIROPT)
            return manager, info.value

        manager, error = asyncio.run(scenario())
        assert error.retry_after_s > 0
        assert error.pending_cost > error.budget == 1
        assert manager.metrics.jobs_rejected == 1
        assert manager.metrics.jobs_submitted == 1

    def test_budget_accounts_for_estimated_cost(self):
        config, profile = SPEC.config(), SPEC.profile()
        cost = replica_cost(config, profile)
        assert cost == profile.references_per_node * config.num_nodes

        async def scenario():
            manager = JobManager(max_pending_cost=3 * cost)
            await manager.submit_async(SPEC)
            await manager.submit_async(SPEC_DIROPT)  # 2 * cost pending: still in budget
            await manager.submit_async(SPEC_DIRCLASSIC)  # 3 * cost: exactly at budget
            with pytest.raises(AdmissionError):
                await manager.submit_async(SPEC.with_overrides(seed=7))
            return manager

        manager = asyncio.run(scenario())
        assert manager.metrics.peak_pending_cost == 3 * cost

    def test_unbounded_when_budget_disabled(self):
        async def scenario():
            manager = JobManager(max_pending_cost=None)
            for seed in range(20):
                await manager.submit_async(SPEC.with_overrides(seed=seed))
            return manager

        assert asyncio.run(scenario()).metrics.jobs_submitted == 20

    def test_drained_queue_admits_again(self):
        async def scenario():
            async with JobManager(max_pending_cost=1) as manager:
                await manager.submit_async(SPEC)
                with pytest.raises(AdmissionError):
                    await manager.submit_async(SPEC_DIROPT)
                await manager.drain()
                handle = await manager.submit_async(SPEC_DIROPT)  # queue empty again
                await manager.drain()
                return await handle.result()

        assert asyncio.run(scenario()).protocol == "diropt"

    def test_rejection_numbers_no_job(self):
        # A rejected submission leaves no trace in the job numbering: the
        # next accepted job takes the id the rejected one would have had,
        # and that id never reads as a finished-and-dropped job.
        async def scenario():
            backend = InlinePoolBackend()
            async with JobManager(backend=backend, max_pending_cost=1) as manager:
                manager.scheduler.hold()
                first = await manager.submit_async(SPEC)
                with pytest.raises(AdmissionError):
                    await manager.submit_async(SPEC_DIROPT)
                after_rejection = (
                    manager.get_job("job-2"),
                    manager.evicted("job-2"),
                    len(manager.jobs),
                )
                manager.scheduler.release()
                await manager.drain()
                second = await manager.submit_async(SPEC_DIROPT)
                await manager.drain()
                return manager, first, second, after_rejection

        manager, first, second, after_rejection = asyncio.run(scenario())
        assert after_rejection == (None, False, 1)
        assert (first.job_id, second.job_id) == ("job-1", "job-2")
        assert not manager.evicted("job-3")
        assert manager.metrics.jobs_rejected == 1
        assert manager.metrics.jobs_submitted == 2


class TestCancellation:
    def test_cancel_mid_sweep_skips_remaining_replicas(self):
        spec = SPEC.with_overrides(perturbation_replicas=3)

        async def scenario():
            backend = GatedBackend()
            async with JobManager(backend=backend) as manager:
                handle = await manager.submit_async(spec)
                events_task = asyncio.ensure_future(_collect(handle))
                while backend.started == 0:
                    await asyncio.sleep(0)
                assert handle.cancel()
                backend.gate.set()
                await manager.drain()
                return manager, handle, await events_task

        manager, handle, events = asyncio.run(scenario())
        assert handle.state is JobState.CANCELLED
        assert handle.cancelled
        # Only the replica already in flight hit the pool.
        assert manager.backend.submissions == 1
        assert manager.metrics.replicas_skipped_cancelled == 3
        assert manager.metrics.jobs_cancelled == 1
        _assert_stream_shape(events, terminal_type=JobCancelled)
        assert len(events) == 2  # admitted, cancelled -- nothing mid-stream

    def test_cancelled_result_raises(self):
        async def scenario():
            manager = JobManager()  # never started: job stays queued
            handle = await manager.submit_async(SPEC)
            assert handle.cancel()
            with pytest.raises(JobCancelledError, match=handle.job_id):
                await handle.result()
            return handle

        handle = asyncio.run(scenario())
        assert not handle.cancel()  # second cancel is a no-op

    def test_cancel_after_completion_is_refused(self):
        async def scenario():
            async with JobManager() as manager:
                handle = await manager.submit_async(SPEC)
                await manager.drain()
                await handle.result()
                return handle.cancel()

        assert asyncio.run(scenario()) is False

    def test_cancelled_replica_still_lands_in_cache(self):
        # Work already in flight is not wasted: its result is stored for
        # the next caller even though the cancelled job never sees it.
        async def scenario():
            backend = GatedBackend()
            cache = ResultCache()
            async with JobManager(backend=backend, cache=cache) as manager:
                handle = await manager.submit_async(SPEC)
                while backend.started == 0:
                    await asyncio.sleep(0)
                handle.cancel()
                backend.gate.set()
                await manager.drain()
            async with JobManager(cache=cache) as manager:
                replay = await manager.submit_async(SPEC)
                await manager.drain()
                await replay.result()
                return manager

        manager = asyncio.run(scenario())
        assert manager.backend.submissions == 0


class TestScheduling:
    def test_lower_priority_number_runs_first(self):
        async def scenario():
            backend = RecordingBackend()
            manager = JobManager(backend=backend)
            await manager.submit_async(SPEC, priority=5)
            await manager.submit_async(SPEC_DIROPT, priority=0)
            async with manager:
                await manager.drain()
            return backend.order

        order = asyncio.run(scenario())
        assert [protocol for protocol, _ in order] == ["diropt", "ts-snoop"]

    def test_equal_priority_is_fifo(self):
        async def scenario():
            backend = RecordingBackend()
            manager = JobManager(backend=backend)
            for spec in (SPEC_DIRCLASSIC, SPEC, SPEC_DIROPT):
                await manager.submit_async(spec, priority=1)
            async with manager:
                await manager.drain()
            return backend.order

        order = asyncio.run(scenario())
        assert [protocol for protocol, _ in order] == [
            "dirclassic",
            "ts-snoop",
            "diropt",
        ]


class TestLifecycleAndMetrics:
    def test_snapshot_validates_and_counts(self):
        async def scenario():
            cache = ResultCache()
            async with JobManager(cache=cache) as manager:
                handles = [await manager.submit_async(SPEC) for _ in range(2)]
                await manager.drain()
                for handle in handles:
                    await handle.result()
                return manager.snapshot()

        snapshot = asyncio.run(scenario())
        validate_metrics_snapshot(snapshot)
        assert snapshot["jobs"]["jobs_submitted"] == 2
        assert snapshot["replicas"]["replicas_computed"] == 1
        assert snapshot["queue"]["queue_depth"] == 0
        assert snapshot["queue"]["peak_queue_depth"] == 2
        assert snapshot["cache"]["stores"] == 1
        assert snapshot["workers"]["workers_total"] == 1

    def test_submit_after_close_is_refused(self):
        async def scenario():
            manager = JobManager()
            async with manager:
                pass
            with pytest.raises(RuntimeError, match="closed"):
                await manager.submit_async(SPEC)

        asyncio.run(scenario())

    def test_make_backend_selects_by_jobs(self):
        cpus = os.cpu_count() or 1
        for jobs, workers in ((1, 1), (None, 1), (2, 2), (0, cpus)):
            backend = make_backend(jobs)
            assert isinstance(backend, WorkerPoolBackend)
            assert backend.max_workers == workers
            assert backend.worker_pids == []  # workers start on first use
            asyncio.run(backend.aclose())  # never started: a no-op
