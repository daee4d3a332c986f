"""Fault-injection tests for the service's fault-tolerance layer.

Every documented fault class -- worker crash, replica deadline overrun,
disk I/O error, corrupt cache shard, torn journal tail -- is injected
deterministically (a :class:`~repro.service.faults.FaultPlan` wrapped
around the pool backend, the cache's shard ``open`` or the journal's
``write``, or a real shard overwritten with garbage) and its
documented recovery behaviour asserted: transient failures retry with
deterministic backoff and the final result stays bit-identical to an
unfaulted run; permanent failures quarantine a replica without killing
its siblings; disk faults degrade the cache/journal instead of failing
jobs; and a journal-driven recovery recomputes only the missing replicas.
A hypothesis sweep then interleaves random crashes, timeouts and
cancellations across concurrent jobs and asserts no injected fault can
break the streaming event-ordering contract or the journal/metrics
accounting.
"""

from __future__ import annotations

import asyncio
import os
import signal
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.spec import ExperimentSpec
from repro.parallel.jobs import ReplicaJob, execute_replica_job
from repro.parallel.sweep import select_minimum_replica
from repro.service.cache import ResultCache, replica_key
from repro.service.events import (
    JobAdmitted,
    JobCompleted,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
    ReplicaRetried,
    ServiceDegraded,
)
from repro.service.faults import (
    KIND_CRASH,
    KIND_IO_ERROR,
    KIND_PERMANENT,
    KIND_TIMEOUT,
    SITE_BACKEND_RUN,
    SITE_CACHE_DISK_PUT,
    SITE_JOURNAL_APPEND,
    Fault,
    FaultingPoolBackend,
    FaultPlan,
)
from repro.service.journal import JobJournal
from repro.service.manager import (
    DEFAULT_BACKOFF_BASE_S,
    DEFAULT_BACKOFF_CAP_S,
    JobManager,
    JobState,
    WorkerPoolBackend,
    is_transient,
)
from repro.service.metrics import validate_metrics_snapshot
from tests.service.backends import InlinePoolBackend, process_exists
from tests.service.io_faults import inject_cache_faults, inject_journal_faults
from tests.service.journal_files import (
    journal_count,
    journal_records,
    write_parent_format_journal,
)

SCALE = 0.05

SPEC = ExperimentSpec.make("oltp", scale=SCALE)
SPEC2 = SPEC.with_overrides(perturbation_replicas=2)
SPEC3 = SPEC.with_overrides(perturbation_replicas=3)


async def _no_sleep(_seconds: float) -> None:
    """Backoff stub: keeps retry tests instant without losing determinism."""


async def _collect(handle):
    return [event async for event in handle.events()]


def _faulting_manager(faults, **kwargs):
    """An inline manager whose backend injects ``faults``."""
    plan = FaultPlan(faults)
    hang = kwargs.pop("hang_on_timeout", False)
    backend = FaultingPoolBackend(InlinePoolBackend(), plan, hang_on_timeout=hang)
    kwargs.setdefault("sleep", _no_sleep)
    return JobManager(backend=backend, **kwargs), plan


_BASELINES = {}


def _clean_result(spec: ExperimentSpec):
    """The unfaulted merged result of ``spec`` (memoised per label/replicas)."""
    config, profile = spec.config(), spec.profile()
    key = (spec.label, config.perturbation_replicas)
    if key not in _BASELINES:
        results = [
            execute_replica_job(
                ReplicaJob(config=config, profile=profile, replica_index=index)
            )
            for index in range(config.perturbation_replicas)
        ]
        _BASELINES[key] = select_minimum_replica(results)
    return _BASELINES[key]


def _assert_contract(events, *, max_attempts):
    """The full streaming contract, fault events included."""
    assert isinstance(events[0], JobAdmitted)
    assert sum(isinstance(event, JobAdmitted) for event in events) == 1
    assert events[-1].terminal
    assert sum(event.terminal for event in events) == 1
    core = [event for event in events if not event.informational]
    assert all(not event.terminal for event in core[1:-1])
    middle = core[1:-1]
    assert len(middle) % 2 == 0
    for index in range(0, len(middle), 2):
        assert isinstance(middle[index], ReplicaCompleted)
        assert isinstance(middle[index + 1], JobProgress)
        assert middle[index + 1].completed == index // 2 + 1
    # Retry sequences are well-formed: per replica, attempts count up from
    # 1 and never reach the budget (the budget's last attempt either
    # succeeds or quarantines -- it is never "retried").
    retries = {}
    for event in events:
        if isinstance(event, ReplicaRetried):
            retries.setdefault(event.replica_index, []).append(event.attempt)
    for attempts in retries.values():
        assert attempts == list(range(1, len(attempts) + 1))
        assert max(attempts) < max_attempts


class TestRetryPolicy:
    def _run(self, spec, manager):
        async def scenario():
            async with manager:
                handle = await manager.submit_async(spec)
                await manager.drain()
                events = await _collect(handle)
                return handle, events

        return asyncio.run(scenario())

    def test_worker_crash_is_retried_bit_identically(self):
        manager, plan = _faulting_manager([Fault(SITE_BACKEND_RUN, 1, KIND_CRASH)])
        handle, events = self._run(SPEC, manager)
        _assert_contract(events, max_attempts=manager.max_attempts)
        assert isinstance(events[-1], JobCompleted)
        assert events[-1].result == _clean_result(SPEC)
        retried = [e for e in events if isinstance(e, ReplicaRetried)]
        assert len(retried) == 1 and retried[0].attempt == 1
        assert retried[0].backoff_s == DEFAULT_BACKOFF_BASE_S
        assert manager.metrics.worker_crashes == 1
        assert manager.metrics.replicas_retried == 1
        assert manager.metrics.replicas_quarantined == 0
        # The crashed attempt never reached the inner pool.
        assert manager.backend.submissions == 1
        assert len(plan.fired) == 1 and plan.pending() == []

    def test_replica_deadline_kills_a_hung_worker_and_retries(self):
        manager, _plan = _faulting_manager(
            [Fault(SITE_BACKEND_RUN, 1, KIND_TIMEOUT)],
            hang_on_timeout=True,
            replica_timeout=0.05,
        )
        handle, events = self._run(SPEC, manager)
        assert isinstance(events[-1], JobCompleted)
        assert events[-1].result == _clean_result(SPEC)
        assert manager.metrics.replica_timeouts == 1
        assert manager.metrics.replicas_retried == 1
        assert manager.metrics.worker_crashes == 0

    def test_io_error_is_transient_and_retried(self):
        manager, _plan = _faulting_manager(
            [Fault(SITE_BACKEND_RUN, 1, KIND_IO_ERROR, "EIO")]
        )
        handle, events = self._run(SPEC, manager)
        assert isinstance(events[-1], JobCompleted)
        assert manager.metrics.replicas_retried == 1
        assert manager.metrics.worker_crashes == 0
        assert manager.metrics.replica_timeouts == 0

    def test_permanent_error_quarantines_without_retry(self):
        manager, _plan = _faulting_manager([Fault(SITE_BACKEND_RUN, 1, KIND_PERMANENT)])
        handle, events = self._run(SPEC2, manager)
        _assert_contract(events, max_attempts=manager.max_attempts)
        # Replica 0 is quarantined on its *first* attempt; replica 1
        # survives, so the job completes over the one finished replica.
        assert isinstance(events[-1], JobCompleted)
        assert not any(isinstance(e, ReplicaRetried) for e in events)
        failed = [e for e in events if isinstance(e, ReplicaFailed)]
        assert len(failed) == 1
        assert failed[0].replica_index == 0
        assert failed[0].permanent and failed[0].attempts == 1
        assert set(handle.quarantined) == {0}
        assert handle.state is JobState.COMPLETED
        assert events[-1].result.replicas == 1
        assert manager.metrics.replicas_quarantined == 1
        assert manager.metrics.replicas_retried == 0
        assert manager.metrics.jobs_completed == 1

    def test_exhausted_attempt_budget_quarantines_then_fails_the_job(self):
        manager, _plan = _faulting_manager(
            [Fault(SITE_BACKEND_RUN, at, KIND_CRASH) for at in (1, 2, 3)],
            max_attempts=3,
        )
        handle, events = self._run(SPEC, manager)
        _assert_contract(events, max_attempts=3)
        # The only replica burned its whole budget: two retries, one
        # quarantine -- and with zero survivors the job fails.
        assert isinstance(events[-1], JobFailed)
        assert "quarantined" in events[-1].error
        retried = [e for e in events if isinstance(e, ReplicaRetried)]
        assert [e.attempt for e in retried] == [1, 2]
        failed = [e for e in events if isinstance(e, ReplicaFailed)]
        assert len(failed) == 1
        assert failed[0].attempts == 3 and not failed[0].permanent
        assert manager.metrics.worker_crashes == 3
        assert manager.metrics.jobs_failed == 1
        with pytest.raises(RuntimeError, match="quarantined"):
            asyncio.run(handle.result())

    def test_backoff_is_deterministic_exponential_and_capped(self):
        sleeps = []

        async def record_sleep(seconds):
            sleeps.append(seconds)

        manager, _plan = _faulting_manager(
            [Fault(SITE_BACKEND_RUN, at, KIND_CRASH) for at in (1, 2)],
            max_attempts=3,
            sleep=record_sleep,
        )
        handle, events = self._run(SPEC, manager)
        assert isinstance(events[-1], JobCompleted)
        assert sleeps == [0.05, 0.1]
        retried = [e for e in events if isinstance(e, ReplicaRetried)]
        assert [e.backoff_s for e in retried] == [0.05, 0.1]
        assert manager._backoff(7) == DEFAULT_BACKOFF_CAP_S  # 3.2 s uncapped

    def test_transient_classification(self):
        assert is_transient(OSError(28, "disk full"))
        assert is_transient(asyncio.TimeoutError())
        assert is_transient(TimeoutError())
        assert not is_transient(ValueError("bad spec"))
        assert not is_transient(ZeroDivisionError())


class TestWorkerCrashRecovery:
    def test_dead_pool_worker_is_rebuilt_and_replica_requeued(self):
        warm = ReplicaJob(config=SPEC.config(), profile=SPEC.profile(), replica_index=0)

        async def scenario():
            backend = WorkerPoolBackend(max_workers=1)
            # Warm the pool (workers spawn lazily), then kill its worker.
            await backend.run(warm)
            (killed,) = backend.worker_pids
            os.kill(killed, signal.SIGKILL)
            async with JobManager(backend=backend, sleep=_no_sleep) as manager:
                handle = await manager.submit_async(SPEC)
                await manager.drain()
                result = await handle.result()
                assert killed not in backend.worker_pids
                assert not process_exists(killed)
                return backend, manager, result

        backend, manager, result = asyncio.run(scenario())
        assert result == _clean_result(SPEC)
        assert backend.worker_pids == []
        assert backend.pool_rebuilds == 1
        assert manager.metrics.worker_crashes == 1
        assert manager.metrics.replicas_retried == 1
        assert manager.metrics.jobs_completed == 1


class TestCacheDegradation:
    def _run_with_cache(self, cache, spec=SPEC):
        async def scenario():
            async with JobManager(cache=cache, sleep=_no_sleep) as manager:
                handle = await manager.submit_async(spec)
                await manager.drain()
                events = await _collect(handle)
                return manager, handle, events

        return asyncio.run(scenario())

    def test_disk_put_fault_degrades_service_but_not_the_job(
        self, tmp_path, monkeypatch
    ):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_PUT, 1, KIND_IO_ERROR)])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")
        manager, handle, events = self._run_with_cache(cache)
        assert isinstance(events[-1], JobCompleted)
        assert events[-1].result == _clean_result(SPEC)
        assert cache.degraded
        degraded = [e for e in events if isinstance(e, ServiceDegraded)]
        assert len(degraded) == 1 and degraded[0].component == "cache"
        assert "ENOSPC" in degraded[0].reason
        health = manager.health()
        assert health["degraded"] and "cache" in health["components"]
        snapshot = manager.snapshot()
        validate_metrics_snapshot(snapshot)
        assert snapshot["health"]["degraded"] is True
        assert snapshot["cache"]["disk_put_errors"] == 1

    def test_corrupt_shard_recomputes_and_degrades(self, tmp_path):
        cache = ResultCache(tmp_path / "store")
        key = replica_key(SPEC.config(), SPEC.profile(), 0)
        cache.put(key, _clean_result(SPEC))
        cache.clear_memory()
        shard = tmp_path / "store" / key[:2] / f"{key}.json"
        shard.write_text('{"kind": "wrong"}')
        manager, handle, events = self._run_with_cache(cache)
        assert isinstance(events[-1], JobCompleted)
        assert events[-1].result == _clean_result(SPEC)
        assert manager.backend.submissions == 1  # recomputed, not served
        assert cache.degraded
        assert "corrupt" in cache.degraded_reason
        degraded = [e for e in events if isinstance(e, ServiceDegraded)]
        assert len(degraded) == 1 and degraded[0].component == "cache"

    def test_degradation_is_announced_once_across_jobs(self, tmp_path, monkeypatch):
        plan = FaultPlan([Fault(SITE_CACHE_DISK_PUT, 1, KIND_IO_ERROR)])
        inject_cache_faults(monkeypatch, plan)
        cache = ResultCache(tmp_path / "store")

        async def scenario():
            async with JobManager(cache=cache, sleep=_no_sleep) as manager:
                first = await manager.submit_async(SPEC)
                second = await manager.submit_async(
                    ExperimentSpec.make("oltp", protocol="diropt", scale=SCALE)
                )
                await manager.drain()
                return (
                    manager,
                    await _collect(first),
                    await _collect(second),
                )

        manager, first_events, second_events = asyncio.run(scenario())
        announcements = [
            event
            for event in first_events + second_events
            if isinstance(event, ServiceDegraded)
        ]
        assert len(announcements) == 1


class TestJournalDegradation:
    def test_journal_fault_degrades_but_the_job_completes(self, tmp_path):
        plan = FaultPlan([Fault(SITE_JOURNAL_APPEND, 2, KIND_IO_ERROR)])
        journal_path = tmp_path / "journal.jsonl"
        journal = inject_journal_faults(JobJournal(journal_path), plan)

        async def scenario():
            async with JobManager(journal=journal, sleep=_no_sleep) as manager:
                handle = await manager.submit_async(SPEC)
                await manager.drain()
                events = await _collect(handle)
                return manager, events

        manager, events = asyncio.run(scenario())
        journal.close()
        assert isinstance(events[-1], JobCompleted)
        degraded = [e for e in events if isinstance(e, ServiceDegraded)]
        assert len(degraded) == 1 and degraded[0].component == "journal"
        health = manager.health()
        assert health["degraded"] and "journal" in health["components"]
        # The journal stopped at the fault: submission recorded, the
        # completion (the second append) lost -- and no job was failed
        # because of it.
        assert journal_count(journal_path, "job-submitted") == 1
        assert journal_count(journal_path, "job-completed") == 0
        assert manager.metrics.jobs_failed == 0


class TestJournalRecovery:
    def test_recovery_resumes_only_missing_replicas_bit_identically(self, tmp_path):
        config, profile = SPEC3.config(), SPEC3.profile()
        # First service life: replica 0 completed (and was cached), then
        # the process died without a terminal record.
        cache_dir = tmp_path / "cache"
        first_cache = ResultCache(cache_dir)
        first_cache.put(
            replica_key(config, profile, 0),
            execute_replica_job(
                ReplicaJob(config=config, profile=profile, replica_index=0)
            ),
        )
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            journal.append(
                "job-submitted", job="job-1", priority=0, spec=SPEC3.as_document()
            )

        # Second life: recover() resubmits the unfinished job; replica 0
        # replays from the cache, replicas 1 and 2 are recomputed.
        async def scenario(journal, cache):
            async with JobManager(
                cache=cache, journal=journal, sleep=_no_sleep
            ) as manager:
                handles = manager.recover()
                await manager.drain()
                streams = [await _collect(handle) for handle in handles]
                results = [await handle.result() for handle in handles]
                return manager, handles, streams, results

        journal = JobJournal(journal_path)
        cache = ResultCache(cache_dir)
        manager, handles, streams, results = asyncio.run(scenario(journal, cache))
        journal.close()
        assert len(handles) == 1
        assert handles[0].job_id == "job-2"  # numbering continues
        _assert_contract(streams[0], max_attempts=manager.max_attempts)
        assert results[0] == _clean_result(SPEC3)
        assert manager.backend.submissions == 2
        assert manager.metrics.replicas_from_cache == 1
        assert manager.metrics.jobs_recovered == 1
        assert journal_count(journal_path, "job-recovered") == 1
        assert journal_count(journal_path, "job-completed") == 1
        assert journal.unfinished_jobs() == []
        snapshot = manager.snapshot()
        validate_metrics_snapshot(snapshot)
        assert snapshot["jobs"]["jobs_recovered"] == 1

    def test_killed_service_recovers_from_journal_and_cache(self, tmp_path):
        journal_path = tmp_path / "journal.jsonl"

        # First life: a real one-worker pool.  Once the first replica lands
        # in the disk cache, SIGKILL the worker and abandon the manager
        # before it can observe the crash -- no retry, no terminal record,
        # as if the service died.
        async def crash():
            journal = JobJournal(journal_path)
            backend = WorkerPoolBackend(max_workers=1)
            manager = JobManager(
                cache=ResultCache(tmp_path / "cache"),
                backend=backend,
                journal=journal,
            )
            await manager.start()
            await manager.submit_async(SPEC3)
            loop = asyncio.get_running_loop()
            deadline = loop.time() + 120.0
            metrics = manager.metrics
            while metrics.replicas_computed < 1 and loop.time() < deadline:
                await asyncio.sleep(0.005)
            for pid in backend.worker_pids:
                os.kill(pid, signal.SIGKILL)
            await manager.aclose()
            journal.close()
            return metrics.replicas_computed

        completed_before = asyncio.run(crash())
        assert completed_before >= 1
        assert journal_count(journal_path, "job-submitted") == 1
        assert journal_count(journal_path, "job-completed") == 0
        with open(journal_path, "ab") as handle:
            handle.write(b'deadbeef {"type":"job-compl')

        # Second life over the same journal and cache directory.
        async def recover(journal):
            async with JobManager(
                cache=ResultCache(tmp_path / "cache"),
                journal=journal,
                sleep=_no_sleep,
            ) as manager:
                handles = manager.recover()
                await manager.drain()
                streams = [await _collect(handle) for handle in handles]
                results = [await handle.result() for handle in handles]
                return manager, streams, results

        journal = JobJournal(journal_path)
        assert journal.torn_bytes_dropped > 0
        manager, streams, results = asyncio.run(recover(journal))
        journal.close()
        assert len(streams) == 1
        _assert_contract(streams[0], max_attempts=manager.max_attempts)
        submissions = manager.backend.submissions
        from_cache = manager.metrics.replicas_from_cache
        assert submissions + from_cache == 3
        assert from_cache >= completed_before
        assert submissions < 3
        assert results == [_clean_result(SPEC3)]

    @pytest.mark.parametrize("name,value", [("cache_array", "dict"), ("jobs", 4)])
    def test_stale_spec_fails_its_job_and_the_rest_recover(self, tmp_path, name, value):
        # A journal written before a config field was removed: its spec no
        # longer validates, so that job fails alone and the valid job beside
        # it is still recovered.
        stale = SPEC.as_document()
        stale["overrides"] = [[name, value]]
        journal_path = tmp_path / "journal.jsonl"
        with JobJournal(journal_path) as journal:
            journal.append("job-submitted", job="job-1", priority=0, spec=stale)
            journal.append(
                "job-submitted", job="job-2", priority=0, spec=SPEC.as_document()
            )

        async def scenario(journal):
            async with JobManager(
                backend=InlinePoolBackend(), journal=journal, sleep=_no_sleep
            ) as manager:
                handles = manager.recover()
                await manager.drain()
                results = [await handle.result() for handle in handles]
                return manager, handles, results

        journal = JobJournal(journal_path)
        manager, handles, results = asyncio.run(scenario(journal))
        journal.close()
        assert results == [_clean_result(SPEC)]
        assert manager.metrics.jobs_failed == 1
        assert manager.metrics.jobs_recovered == 1
        assert journal.unfinished_jobs() == []
        (recovered,) = journal_records(journal_path, "job-recovered")
        assert (recovered["from"], recovered["job"]) == ("job-2", handles[0].job_id)
        (failed,) = journal_records(journal_path, "job-failed")
        assert failed["job"] == "job-1"
        assert name in failed["error"]

    def test_parent_format_journal_recovers_and_numbering_continues(self, tmp_path):
        # A journal written before replica records were dropped (sequence
        # numbers, replica keys, replica records): its unfinished job is
        # recovered with its priority and client lane, under the next id.
        config, profile = SPEC2.config(), SPEC2.profile()
        keys = [replica_key(config, profile, index) for index in range(2)]
        journal_path = tmp_path / "journal.jsonl"
        write_parent_format_journal(journal_path, SPEC2.as_document(), keys)

        async def scenario(journal):
            async with JobManager(
                backend=InlinePoolBackend(), journal=journal, sleep=_no_sleep
            ) as manager:
                handles = manager.recover()
                await manager.drain()
                streams = [await _collect(handle) for handle in handles]
                results = [await handle.result() for handle in handles]
                return manager, handles, streams, results

        journal = JobJournal(journal_path)
        manager, handles, streams, results = asyncio.run(scenario(journal))
        journal.close()
        (handle,) = handles
        assert handle.job_id == "job-3"  # numbering continues
        assert (handle.priority, handle.client_id) == (3, "alice")
        _assert_contract(streams[0], max_attempts=manager.max_attempts)
        assert results == [_clean_result(SPEC2)]
        assert journal.unfinished_jobs() == []
        (recovered,) = journal_records(journal_path, "job-recovered")
        assert (recovered["from"], recovered["job"]) == ("job-2", "job-3")
        assert journal_count(journal_path, "job-completed") == 2

    def test_recover_is_a_noop_without_unfinished_work(self, tmp_path):
        async def scenario():
            journal = JobJournal(tmp_path / "journal.jsonl")
            async with JobManager(journal=journal, sleep=_no_sleep) as manager:
                assert manager.recover() == []
            journal.close()
            async with JobManager(sleep=_no_sleep) as bare:
                assert bare.recover() == []

        asyncio.run(scenario())


class TestEventContractUnderRandomFaults:
    SPECS = [
        ExperimentSpec.make("oltp", protocol=protocol, scale=SCALE).with_overrides(
            perturbation_replicas=2
        )
        for protocol in ("ts-snoop", "diropt", "dirclassic")
    ]

    @given(
        seed=st.integers(min_value=0, max_value=2**16 - 1),
        cancel_index=st.integers(min_value=-1, max_value=2),
    )
    @settings(max_examples=15, deadline=None)
    def test_no_injected_fault_breaks_the_contract(self, seed, cancel_index):
        plan = FaultPlan.seeded(
            seed,
            {
                SITE_BACKEND_RUN: [
                    KIND_CRASH,
                    KIND_TIMEOUT,
                    KIND_IO_ERROR,
                    KIND_PERMANENT,
                ]
            },
            invocations=16,
            rate=0.3,
        )

        async def scenario(journal):
            backend = FaultingPoolBackend(InlinePoolBackend(), plan)
            async with JobManager(
                backend=backend,
                journal=journal,
                max_attempts=2,
                sleep=_no_sleep,
            ) as manager:
                handles = [await manager.submit_async(spec) for spec in self.SPECS]
                if cancel_index >= 0:
                    assert handles[cancel_index].cancel()
                await manager.drain()
                streams = [await _collect(handle) for handle in handles]
                return manager, handles, streams

        with tempfile.TemporaryDirectory() as root:
            journal_path = Path(root) / "journal.jsonl"
            journal = JobJournal(journal_path)
            manager, handles, streams = asyncio.run(scenario(journal))
            journal.close()
            counts = {
                record_type: journal_count(journal_path, record_type)
                for record_type in (
                    "job-submitted",
                    "job-completed",
                    "job-cancelled",
                    "job-failed",
                )
            }

        for events in streams:
            _assert_contract(events, max_attempts=2)
        # Completed jobs with no quarantined replica are bit-identical to
        # an unfaulted run, whatever faults were retried along the way.
        for spec, handle, events in zip(self.SPECS, handles, streams):
            if isinstance(events[-1], JobCompleted) and not handle.quarantined:
                assert events[-1].result == _clean_result(spec)
        # Journal and metrics agree on every job lifecycle count.
        metrics = manager.metrics
        assert counts["job-completed"] == metrics.jobs_completed
        assert counts["job-cancelled"] == metrics.jobs_cancelled
        assert counts["job-failed"] == metrics.jobs_failed
        assert counts["job-submitted"] == metrics.jobs_submitted == 3
        assert journal.unfinished_jobs() == []
        validate_metrics_snapshot(manager.snapshot())
