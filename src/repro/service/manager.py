"""Async job manager: the simulation-as-a-service front-end.

:class:`JobManager` accepts :class:`~repro.api.spec.ExperimentSpec`
requests from any number of concurrent clients and feeds the replica jobs
of :mod:`repro.parallel` to a shared worker pool:

* **Per-client fair scheduling** -- every submission names a client id,
  and the replica queue is a weighted deficit-round-robin scheduler
  (:mod:`repro.service.fairness`) denominated in the admission
  controller's unit-cost estimate, so no client can starve another
  regardless of how much work it submits.  Within one client the old
  contract holds exactly: jobs carry an integer priority (lower runs
  first); within a priority class, replicas run in submission order.
* **Admission control** -- the queue is bounded by *estimated cost* (a
  work proxy: references x nodes x replicas).  Once the pending cost
  would exceed the budget, :meth:`JobManager.submit_async` raises
  :class:`AdmissionError` carrying a ``retry_after_s`` estimate derived
  from the observed completion rate, so overloaded clients back off
  instead of piling up unbounded queues.  A job is always admitted when
  the queue is empty, however large, so no request can starve.
* **Content-addressed dedup** -- with a :class:`~repro.service.cache.
  ResultCache` attached, every replica is looked up at admission: a hit
  completes before :meth:`JobManager.submit_async` returns and never
  enters the replica queue, so it cannot wait behind a computing miss.
  Identical replicas *in flight* are joined (the second job awaits the
  first's future), so overlapping sweeps from concurrent clients compute
  each unique replica exactly once.
* **Streaming progress** -- every job keeps one event log, replayed by
  :meth:`JobHandle.events` to any number of consumers (concurrent or
  late) before it follows live, and an awaitable merged result
  (:meth:`JobHandle.result`); see :mod:`repro.service.events` for the
  ordering contract.
* **Bounded retention** -- :attr:`JobManager.jobs` holds every queued
  and running job plus the last :data:`RETAINED_TERMINAL_JOBS` finished
  ones, in completion order; past that the oldest finished job is
  dropped.  A finished handle keeps only its event log, state, counts
  and merged result.
* **Cancellation** -- :meth:`JobHandle.cancel` takes effect between
  replicas: queued replicas are skipped, the stream ends with
  ``JobCancelled``, and ``result()`` raises :class:`JobCancelledError`.

Replicas compute in :class:`WorkerPoolBackend`: ``jobs`` warm worker
subprocesses (``python -m repro.parallel.worker``), one replica each, so
the event loop keeps serving requests and cache hits while a miss
computes -- ``jobs=1`` is one worker outside the service process.  The
backend is pluggable (pass ``backend=``); backends count their
submissions, which is how the test suite proves a cached replay performs
zero simulation work.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from collections import deque
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Any, AsyncIterator, Awaitable, Callable, Dict, List, Optional, Tuple

import repro
from repro.api.spec import ExperimentSpec, ExperimentSpecError
from repro.parallel.executor import (
    WorkerPoolError,
    resolve_jobs,
    worker_crash_message,
)
from repro.parallel.jobs import ReplicaJob
from repro.parallel.sweep import select_minimum_replica
from repro.parallel.worker import HEADER, encode_frame, reply_outcome
from repro.service.cache import ResultCache, replica_key
from repro.service.events import (
    DEFAULT_CLIENT_ID,
    SOURCE_CACHE,
    SOURCE_COMPUTED,
    SOURCE_DEDUPED,
    JobAdmitted,
    JobCancelled,
    JobCancelledError,
    JobCompleted,
    JobEvent,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
    ReplicaRetried,
    ServiceDegraded,
)
from repro.service.fairness import DeficitRoundRobinQueue
from repro.service.journal import JobJournal, JournalError
from repro.service.metrics import ServiceMetrics
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.workloads.profiles import WorkloadProfile

#: Default admission budget, in cost units (see :func:`replica_cost`).
#: Roughly one hundred default-scale replicas of the 16-node system.
DEFAULT_MAX_PENDING_COST = 5_000_000

#: Cost-units-per-second seed for the retry-after estimate, refined from
#: observed completions as the service runs.
_DEFAULT_COST_RATE = 100_000.0

#: Per-job attempt budget of the retry policy (attempts per replica).
DEFAULT_MAX_ATTEMPTS = 3

#: Deterministic exponential backoff: ``base * 2**(attempt-1)``, capped.
DEFAULT_BACKOFF_BASE_S = 0.05
DEFAULT_BACKOFF_CAP_S = 2.0

#: How many finished jobs the manager keeps, in completion order, for
#: status polls and event replays.  Past it the oldest finished job is
#: dropped (its id then answers 410 Gone over the gateway); queued and
#: running jobs are never dropped.  A module constant, not a knob.
RETAINED_TERMINAL_JOBS = 1024


class WorkerCrashError(WorkerPoolError):
    """A pool worker died mid-replica; the next run starts a fresh one."""


#: The transient failure classes of the retry policy: a worker crash, a
#: deadline overrun, or an I/O hiccup can all succeed on retry.  (Builtin
#: ``TimeoutError`` and ``asyncio.TimeoutError`` are distinct on Python
#: 3.10 and aliased on 3.11+, so both are listed.)  Everything else --
#: spec errors, model bugs -- is permanent and quarantines immediately.
TRANSIENT_EXCEPTIONS = (
    WorkerPoolError,
    asyncio.TimeoutError,
    TimeoutError,
    OSError,
)


def is_transient(error: BaseException) -> bool:
    """Whether the retry policy classifies ``error`` as worth retrying."""
    return isinstance(error, TRANSIENT_EXCEPTIONS)


class AdmissionError(RuntimeError):
    """The bounded queue is full; retry after ``retry_after_s`` seconds."""

    def __init__(self, pending_cost: int, budget: int, retry_after_s: float):
        super().__init__(
            f"admission rejected: pending cost {pending_cost} exceeds the "
            f"budget {budget}; retry after {retry_after_s:.2f}s"
        )
        self.pending_cost = pending_cost
        self.budget = budget
        self.retry_after_s = retry_after_s


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"


def replica_cost(config: SystemConfig, profile: WorkloadProfile) -> int:
    """Estimated cost of one replica (a simulated-references work proxy)."""
    return max(1, profile.references_per_node * config.num_nodes)


# ---------------------------------------------------------------- backends
class PoolBackend:
    """Where replica jobs actually run.  Subclasses count submissions."""

    max_workers: int = 1
    submissions: int = 0

    async def run(self, job: ReplicaJob) -> RunResult:
        raise NotImplementedError

    async def aclose(self) -> None:
        """Release pool resources (idempotent)."""


#: How long :meth:`WorkerPoolBackend.aclose` lets a worker exit on its own
#: after closing its stdin, before killing it.
WORKER_EXIT_TIMEOUT_S = 5.0


class WorkerPoolBackend(PoolBackend):
    """Up to ``max_workers`` warm worker subprocesses, one replica each.

    Each worker is ``python -m repro.parallel.worker``, started by
    :func:`asyncio.create_subprocess_exec` on the first replica that needs
    it and kept for the life of the service, so its stream cache stays
    warm across requests.  The job goes to the worker's stdin and the
    result comes back on its stdout (see :mod:`repro.parallel.worker`), so
    the event loop only waits on pipes while a replica computes.  A plain
    subprocess inherits none of the gateway's sockets (``close_fds``) and
    starts no helper processes.  The manager runs at most ``max_workers``
    replicas at a time, so at most that many workers are live.

    A worker that dies mid-replica (end of file or a short read on its
    reply) is reaped and :class:`WorkerCrashError` is raised; the next
    run starts a fresh worker, so the manager's retry policy requeues the
    replica.  A run that is cancelled -- by ``replica_timeout`` or by
    :meth:`JobManager.aclose` -- kills its worker, so an abandoned
    replica stops using CPU.  A fresh worker's start-up (about 0.1 s of
    imports) counts against its first replica's deadline.  :meth:`aclose`
    stops every worker and waits for each to exit.
    """

    def __init__(self, max_workers: int) -> None:
        if max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers
        self.submissions = 0
        #: Workers replaced because one crashed mid-replica.
        self.pool_rebuilds = 0
        self._idle: List[asyncio.subprocess.Process] = []
        self._live: List[asyncio.subprocess.Process] = []

    @property
    def worker_pids(self) -> List[int]:
        """The pid of every worker started and not yet reaped."""
        return [process.pid for process in self._live]

    async def run(self, job: ReplicaJob) -> RunResult:
        self.submissions += 1
        frame = encode_frame(job)
        process = self._idle.pop() if self._idle else await self._spawn()
        try:
            reply = await self._exchange(process, frame, job.replica_index)
        except BaseException as error:
            # Crashed, or cancelled mid-replica: its state is unknown.
            if isinstance(error, WorkerCrashError):
                self.pool_rebuilds += 1
            await self._stop(process, grace_s=0.0)
            raise
        self._idle.append(process)
        return reply_outcome(reply)

    async def _spawn(self) -> asyncio.subprocess.Process:
        process = await asyncio.create_subprocess_exec(
            sys.executable,
            "-m",
            "repro.parallel.worker",
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=_worker_environment(),
        )
        self._live.append(process)
        return process

    @staticmethod
    async def _exchange(
        process: asyncio.subprocess.Process, frame: bytes, replica_index: int
    ) -> bytes:
        """Send one request frame; the body of the reply frame."""
        assert process.stdin is not None and process.stdout is not None
        try:
            process.stdin.write(frame)
            await process.stdin.drain()
            header = await process.stdout.readexactly(HEADER.size)
            (size,) = HEADER.unpack(header)
            return await process.stdout.readexactly(size)
        except (asyncio.IncompleteReadError, ConnectionError) as error:
            raise WorkerCrashError(
                worker_crash_message(f"simulating replica {replica_index}")
            ) from error

    async def _stop(self, process: asyncio.subprocess.Process, grace_s: float) -> None:
        """Close the worker's stdin, give it ``grace_s`` to exit, then kill
        it; returns once it is reaped."""
        assert process.stdin is not None
        process.stdin.close()
        if grace_s > 0:
            try:
                await asyncio.wait_for(process.wait(), grace_s)
            except asyncio.TimeoutError:
                pass
        if process.returncode is None:
            try:
                process.kill()
            except ProcessLookupError:
                pass  # exited since the check; wait() below reaps it
        await process.wait()
        if process in self._live:
            self._live.remove(process)

    async def aclose(self) -> None:
        self._idle.clear()
        await asyncio.gather(
            *(self._stop(process, WORKER_EXIT_TIMEOUT_S) for process in self._live)
        )


def _worker_environment() -> Dict[str, str]:
    """This environment, with the directory ``repro`` was imported from
    first on ``PYTHONPATH`` (the parent may have found it via ``sys.path``)."""
    source = str(Path(repro.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH", "")
    paths = [source] + [path for path in inherited.split(os.pathsep) if path]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(paths)}


def make_backend(jobs: Optional[int] = 1) -> PoolBackend:
    """The worker backend for a ``jobs`` knob (0 = one worker per CPU)."""
    return WorkerPoolBackend(resolve_jobs(jobs))


# ------------------------------------------------------------------- jobs
@dataclass
class _ReplicaUnit:
    """One schedulable unit of work: a single replica of one job."""

    handle: "JobHandle"
    replica_index: int
    key: str
    job: ReplicaJob
    cost: int


#: Job states after which nothing about a job changes.
_FINISHED_STATES = (JobState.COMPLETED, JobState.CANCELLED, JobState.FAILED)


class JobHandle:
    """A submitted job: replayable events, awaitable result, cancellation.

    The job's events are kept in one list.  :meth:`events` replays it and
    then follows live, so any number of consumers -- concurrent or late
    -- see the identical sequence; :meth:`result` may be awaited by any
    number of tasks.  Both wait on one future, created only when someone
    waits on a live job and resolved by the next event.

    Once the job finishes, the handle drops what neither the replay nor a
    status poll reads: ``config``, ``profile``, ``keys`` and the
    per-replica results become ``None`` (``total_replicas``,
    ``completed_replicas`` and the merged result stay).
    """

    def __init__(
        self,
        job_id: str,
        spec: ExperimentSpec,
        config: SystemConfig,
        profile: WorkloadProfile,
        priority: int,
        keys: List[str],
        cancel: Callable[["JobHandle"], bool],
        client_id: str = DEFAULT_CLIENT_ID,
    ) -> None:
        self.job_id = job_id
        self.spec = spec
        self.config: Optional[SystemConfig] = config
        self.profile: Optional[WorkloadProfile] = profile
        self.priority = priority
        self.client_id = client_id
        self.keys: Optional[List[str]] = keys
        self.total_replicas = len(keys)
        #: How many replicas have finished so far (gauge for status polls).
        self.completed_replicas = 0
        self.state = JobState.QUEUED
        self._cancel = cancel
        self._results: Optional[Dict[int, RunResult]] = {}
        self._failures: Dict[int, str] = {}
        self._log: List[JobEvent] = []
        self._changed: Optional["asyncio.Future[None]"] = None
        self._merged: Optional[RunResult] = None
        self._error: Optional[BaseException] = None

    @property
    def finished(self) -> bool:
        """Whether the job reached a terminal state."""
        return self.state in _FINISHED_STATES

    @property
    def quarantined(self) -> Dict[int, str]:
        """Replica index -> error repr for replicas that were quarantined."""
        return dict(self._failures)

    @property
    def cancelled(self) -> bool:
        return self.state is JobState.CANCELLED

    def cancel(self) -> bool:
        """Request cancellation; ``True`` if the job was still live."""
        return self._cancel(self)

    async def batches(self) -> AsyncIterator[List[JobEvent]]:
        """Replay the event log, then follow live until the terminal event.

        Each batch is every event not yet handed out, once there is at
        least one; the last batch ends with the terminal event.
        """
        index = 0
        while True:
            if index == len(self._log):
                await self._next_event()
            batch = self._log[index:]
            index = len(self._log)
            yield batch
            if batch[-1].terminal:
                return

    async def events(self) -> AsyncIterator[JobEvent]:
        """Yield every event from the first through the terminal one."""
        async for batch in self.batches():
            for event in batch:
                yield event

    async def result(self) -> RunResult:
        """The merged minimum-replica result (raises if cancelled/failed)."""
        while not self.finished:
            await self._next_event()
        if self._error is not None:
            raise self._error
        assert self._merged is not None
        return self._merged

    def _append(self, event: JobEvent) -> None:
        """Log one event (none after the terminal one) and wake waiters."""
        if self._log and self._log[-1].terminal:
            return
        self._log.append(event)
        changed, self._changed = self._changed, None
        if changed is not None:
            changed.set_result(None)

    async def _next_event(self) -> None:
        if self._changed is None:
            self._changed = asyncio.get_running_loop().create_future()
        # Shielded: a cancelled waiter must not cancel the shared future.
        await asyncio.shield(self._changed)


# ---------------------------------------------------------------- manager
class JobManager:
    """The asyncio front-end feeding specs to the shared worker pool.

    Typical service loop::

        cache = ResultCache("~/.cache/repro-results")
        async with JobManager(jobs=4, cache=cache) as manager:
            handle = await manager.submit_async(spec, priority=1)
            async for event in handle.events():
                ...
            result = await handle.result()
            await manager.drain()

    ``jobs`` is the number of worker subprocesses of the
    :class:`WorkerPoolBackend` (0 = one per CPU); pass ``backend=`` to
    inject a custom one.  ``max_pending_cost=None`` disables admission
    control.

    **Fault tolerance**: replica failures are classified by
    :func:`is_transient`; transient ones (worker crash, deadline overrun,
    I/O error) retry with deterministic exponential backoff
    (``DEFAULT_BACKOFF_BASE_S * 2**(attempt-1)``, capped at
    ``DEFAULT_BACKOFF_CAP_S``) up to ``max_attempts`` attempts, each
    bounded by ``replica_timeout`` seconds when one is set.  A replica
    that exhausts its budget (or fails permanently) is *quarantined* -- a
    ``ReplicaFailed`` event, not a job failure -- and the job completes
    over the replicas that did finish; only a job with zero surviving
    replicas fails.  With a
    :class:`~repro.service.journal.JobJournal` attached, every job
    submission, recovery and terminal transition is journalled durably
    and :meth:`recover` resubmits the jobs a dead service left unfinished
    (their completed replicas replay from the cache, so only the missing
    ones are recomputed).
    """

    def __init__(
        self,
        *,
        jobs: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        backend: Optional[PoolBackend] = None,
        max_pending_cost: Optional[int] = DEFAULT_MAX_PENDING_COST,
        journal: Optional[JobJournal] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        replica_timeout: Optional[float] = None,
        sleep: Callable[[float], Awaitable[None]] = asyncio.sleep,
        client_weights: Optional[Dict[str, int]] = None,
    ) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.backend = backend if backend is not None else make_backend(jobs)
        self.cache = cache
        self.max_pending_cost = max_pending_cost
        self.metrics = ServiceMetrics()
        self.metrics.workers_total = self.backend.max_workers
        self.journal = journal
        self.max_attempts = max_attempts
        self.replica_timeout = replica_timeout
        self._sleep = sleep
        self.scheduler = DeficitRoundRobinQueue(weights=client_weights)
        #: Every live handle plus the last :data:`RETAINED_TERMINAL_JOBS`
        #: finished ones, by job id (the registry behind
        #: ``GET /v1/jobs/{id}`` and cross-request cancellation).
        self.jobs: Dict[str, JobHandle] = {}
        #: Ids of the finished jobs in ``jobs``, oldest first.
        self._finished: deque[str] = deque()
        # Job ids stay unique across every service life sharing one
        # journal: numbering continues after the journalled submissions.
        self._next_job_number = 1 if journal is None else journal.submitted + 1
        self._inflight: Dict[str, "asyncio.Future[RunResult]"] = {}
        self._workers: List["asyncio.Task[None]"] = []
        self._cost_rate = _DEFAULT_COST_RATE
        self._closed = False
        self._journal_degraded = False
        self._journal_reason = ""
        self._degraded_announced: set = set()

    # ------------------------------------------------------------ lifecycle
    async def __aenter__(self) -> "JobManager":
        await self.start()
        return self

    async def __aexit__(self, *_exc_info: Any) -> None:
        await self.aclose()

    async def start(self) -> None:
        """Spawn one worker task per backend worker (idempotent)."""
        if self._closed:
            raise RuntimeError("manager is closed")
        while len(self._workers) < self.backend.max_workers:
            self._workers.append(asyncio.create_task(self._worker()))

    async def drain(self) -> None:
        """Wait until every queued replica has been processed or skipped."""
        await self.scheduler.join()

    async def aclose(self) -> None:
        """Stop the workers and release the backend (no implicit drain)."""
        self._closed = True
        for task in self._workers:
            task.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        await self.backend.aclose()

    # --------------------------------------------------------------- submit
    async def submit_async(
        self,
        spec: ExperimentSpec,
        *,
        priority: int = 0,
        client_id: str = DEFAULT_CLIENT_ID,
    ) -> JobHandle:
        """Admit ``spec`` as a job and enqueue its replicas.

        Raises :class:`AdmissionError` when the pending-cost budget is
        exhausted (unless the queue is empty, which always admits); a
        rejected submission registers nothing and numbers no job.
        ``client_id`` selects the deficit-round-robin lane the job's
        replicas are scheduled in (see :mod:`repro.service.fairness`);
        within a client, lower ``priority`` values run earlier and ties
        are FIFO.  Admission and registration are one step: the returned
        handle's stream starts with ``JobAdmitted``.
        """
        if self._closed:
            raise RuntimeError("manager is closed")
        config = spec.config()
        profile = spec.profile()
        unit_cost = replica_cost(config, profile)
        self._admit(unit_cost * config.perturbation_replicas)
        return self._start(spec, priority, client_id, config, profile, unit_cost)

    def get_job(self, job_id: str) -> Optional[JobHandle]:
        """The handle registered under ``job_id``, if it is still held."""
        return self.jobs.get(job_id)

    def evicted(self, job_id: str) -> bool:
        """Whether ``job_id`` names a job this manager numbered but no
        longer holds (dropped past :data:`RETAINED_TERMINAL_JOBS`).

        Decided from the id alone -- no set of dropped ids is kept.
        """
        prefix, _, number = job_id.partition("-")
        return (
            prefix == "job"
            and number.isascii()
            and number.isdigit()
            and number == str(int(number))
            and int(number) < self._next_job_number
            and job_id not in self.jobs
        )

    def _start(
        self,
        spec: ExperimentSpec,
        priority: int,
        client_id: str,
        config: SystemConfig,
        profile: WorkloadProfile,
        unit_cost: int,
    ) -> JobHandle:
        """Number, register, journal and enqueue an admitted job (shared
        by :meth:`submit_async` and :meth:`recover`).

        A cache hit never waits behind a computing replica: it completes
        here, before :meth:`submit_async` returns.  Only the replicas the
        cache lacks enter the scheduler (``_process`` still checks the
        cache and joins in-flight twins when they dequeue).
        """
        job_id = f"job-{self._next_job_number}"
        self._next_job_number += 1
        keys = [
            replica_key(config, profile, index)
            for index in range(config.perturbation_replicas)
        ]
        handle = JobHandle(
            job_id, spec, config, profile, priority, keys, self._cancel, client_id
        )
        self.jobs[job_id] = handle
        cached: Dict[int, RunResult] = {}
        if self.cache is not None:
            for index, key in enumerate(keys):
                result = self.cache.get(key)
                if result is not None:
                    cached[index] = result
        queued = len(keys) - len(cached)
        self.metrics.jobs_submitted += 1
        self.metrics.note_enqueued(queued, unit_cost * queued)
        self._journal_record(
            handle,
            "job-submitted",
            job=job_id,
            priority=priority,
            client=client_id,
            spec=spec.as_document(),
        )
        self._emit(
            handle,
            JobAdmitted(
                job_id, label=spec.label, total_replicas=len(keys), priority=priority
            ),
        )
        self._note_cache_health(handle)
        if cached:
            handle.state = JobState.RUNNING
        for index, result in cached.items():
            self.metrics.replicas_from_cache += 1
            self._record(handle, index, result, SOURCE_CACHE)
        for index, key in enumerate(keys):
            if index in cached:
                continue
            unit = _ReplicaUnit(
                handle=handle,
                replica_index=index,
                key=key,
                job=ReplicaJob(config=config, profile=profile, replica_index=index),
                cost=unit_cost,
            )
            self.scheduler.put_nowait(client_id, priority, unit_cost, unit)
        return handle

    def recover(self) -> List[JobHandle]:
        """Resubmit the journal's unfinished jobs; returns their handles.

        Each unfinished job (submitted but never terminal, and not already
        recovered by a previous service life) is resubmitted with its
        original priority, bypassing admission control.  Replicas an
        earlier life finished are served from the attached
        :class:`~repro.service.cache.ResultCache`, so only the missing
        replicas are actually recomputed; the merged result is
        bit-identical to an uninterrupted run.

        An entry whose spec no longer validates (say, one that overrides a
        since-removed config field) is journaled ``job-failed`` with the
        spec error and counted in ``jobs_failed``; the other entries are
        still recovered.
        """
        if self._closed:
            raise RuntimeError("manager is closed")
        if self.journal is None:
            return []
        handles: List[JobHandle] = []
        for entry in self.journal.unfinished_jobs():
            try:
                spec = ExperimentSpec.from_document(entry.spec)
            except ExperimentSpecError as error:
                self.metrics.jobs_failed += 1
                self._journal_record(
                    None, "job-failed", job=entry.job_id, error=repr(error)
                )
                continue
            config = spec.config()
            profile = spec.profile()
            handle = self._start(
                spec,
                entry.priority,
                entry.client,
                config,
                profile,
                replica_cost(config, profile),
            )
            self.metrics.jobs_recovered += 1
            self._journal_record(
                handle,
                "job-recovered",
                job=handle.job_id,
                **{"from": entry.job_id},
            )
            handles.append(handle)
        return handles

    def _admit(self, total_cost: int) -> None:
        if self.max_pending_cost is None:
            return
        pending = self.metrics.pending_cost
        if pending <= 0 or pending + total_cost <= self.max_pending_cost:
            return
        self.metrics.jobs_rejected += 1
        raise AdmissionError(
            pending_cost=pending,
            budget=self.max_pending_cost,
            retry_after_s=self._retry_after(),
        )

    def _retry_after(self) -> float:
        workers = max(1, self.backend.max_workers)
        rate = max(1.0, self._cost_rate) * workers
        return max(0.05, self.metrics.pending_cost / rate)

    # --------------------------------------------------------------- cancel
    def _cancel(self, handle: JobHandle) -> bool:
        if handle.finished:
            return False
        handle.state = JobState.CANCELLED
        self.metrics.jobs_cancelled += 1
        handle._error = JobCancelledError(handle.job_id)
        self._journal_record(handle, "job-cancelled", job=handle.job_id)
        self._retire(handle, JobCancelled(handle.job_id))
        return True

    # -------------------------------------------------------------- workers
    async def _worker(self) -> None:
        while True:
            unit = await self.scheduler.get()
            try:
                await self._process(unit)
            except Exception as error:  # defensive: keep the worker alive
                self._fail(unit.handle, error)
            finally:
                self.scheduler.task_done()

    async def _process(self, unit: _ReplicaUnit) -> None:
        handle = unit.handle
        self.metrics.note_dequeued(unit.cost)
        if handle.finished:
            self.metrics.replicas_skipped_cancelled += 1
            return
        if handle.state is JobState.QUEUED:
            handle.state = JobState.RUNNING

        result: Optional[RunResult] = None
        source = SOURCE_COMPUTED
        if self.cache is not None:
            result = self.cache.get(unit.key)
            self._note_cache_health(handle)
            if result is not None:
                source = SOURCE_CACHE
                self.metrics.replicas_from_cache += 1
        if result is None:
            pending = self._inflight.get(unit.key)
            if pending is not None:
                try:
                    result = _copy_result(await pending)
                except Exception as error:
                    # The computing job already burned the attempt budget;
                    # joiners quarantine without re-running it themselves.
                    self._quarantine(handle, unit.replica_index, error, attempts=0)
                    return
                source = SOURCE_DEDUPED
                self.metrics.replicas_deduped += 1
            else:
                result = await self._compute(unit)
                if result is None:
                    return  # quarantined
        if handle.finished:
            self.metrics.replicas_skipped_cancelled += 1
            return
        self._record(handle, unit.replica_index, result, source)

    async def _compute(self, unit: _ReplicaUnit) -> Optional[RunResult]:
        """Run one replica (with retries), publishing the in-flight future."""
        future: "asyncio.Future[RunResult]" = asyncio.get_running_loop().create_future()
        self._inflight[unit.key] = future
        result, error, attempts = await self._run_attempts(unit)
        if result is None:
            assert error is not None
            future.set_exception(error)
            future.exception()  # joiners still observe it; silences GC warning
            self._inflight.pop(unit.key, None)
            self._quarantine(unit.handle, unit.replica_index, error, attempts)
            return None
        self.metrics.replicas_computed += 1
        if self.cache is not None:
            self.cache.put(unit.key, result)
            self._note_cache_health(unit.handle)
        future.set_result(result)
        self._inflight.pop(unit.key, None)
        return result

    async def _run_attempts(
        self, unit: _ReplicaUnit
    ) -> Tuple[Optional[RunResult], Optional[BaseException], int]:
        """The retry loop: ``(result, final_error, attempts_used)``.

        Transient failures retry after a deterministic exponential backoff
        until the attempt budget runs out; permanent failures stop at the
        attempt that raised them.  Each attempt is bounded by
        ``replica_timeout`` seconds when one is configured.
        """
        handle = unit.handle
        for attempt in range(1, self.max_attempts + 1):
            self.metrics.note_worker_busy(+1)
            started = time.monotonic()
            try:
                if self.replica_timeout is not None:
                    result = await asyncio.wait_for(
                        self.backend.run(unit.job), timeout=self.replica_timeout
                    )
                else:
                    result = await self.backend.run(unit.job)
            except asyncio.CancelledError:
                self.metrics.note_worker_busy(-1)
                raise
            except Exception as error:
                self.metrics.note_worker_busy(-1)
                transient = self._note_failure(error)
                if not transient or attempt >= self.max_attempts:
                    return None, error, attempt
                backoff = self._backoff(attempt)
                self.metrics.replicas_retried += 1
                self._emit(
                    handle,
                    ReplicaRetried(
                        handle.job_id,
                        replica_index=unit.replica_index,
                        attempt=attempt,
                        error=repr(error),
                        backoff_s=backoff,
                    ),
                )
                if backoff > 0:
                    await self._sleep(backoff)
                continue
            self.metrics.note_worker_busy(-1)
            self._observe_rate(unit.cost, time.monotonic() - started)
            return result, None, attempt
        raise AssertionError("unreachable: the attempt loop always returns")

    def _backoff(self, attempt: int) -> float:
        """Deterministic exponential backoff before attempt ``attempt + 1``."""
        return min(DEFAULT_BACKOFF_CAP_S, DEFAULT_BACKOFF_BASE_S * 2 ** (attempt - 1))

    def _note_failure(self, error: BaseException) -> bool:
        """Count one failed attempt by class; ``True`` when transient."""
        if isinstance(error, WorkerPoolError):
            self.metrics.worker_crashes += 1
            return True
        if isinstance(error, (asyncio.TimeoutError, TimeoutError)):
            self.metrics.replica_timeouts += 1
            return True
        return is_transient(error)

    def _record(
        self,
        handle: JobHandle,
        replica_index: int,
        result: RunResult,
        source: str,
    ) -> None:
        results = handle._results
        assert results is not None
        results[replica_index] = result
        handle.completed_replicas = len(results)
        self._emit(
            handle,
            ReplicaCompleted(
                handle.job_id,
                replica_index=replica_index,
                source=source,
                runtime_ns=result.runtime_ns,
            ),
        )
        finished = list(results.values())
        self._emit(
            handle,
            JobProgress(
                handle.job_id,
                completed=len(finished),
                total=handle.total_replicas,
                best_runtime_ns=min(entry.runtime_ns for entry in finished),
                misses=sum(entry.misses for entry in finished),
            ),
        )
        self._finish_if_done(handle)

    def _quarantine(
        self,
        handle: JobHandle,
        replica_index: int,
        error: BaseException,
        attempts: int,
    ) -> None:
        """Record one exhausted replica without killing its siblings."""
        if handle.finished:
            return
        permanent = not is_transient(error)
        handle._failures[replica_index] = repr(error)
        self.metrics.replicas_quarantined += 1
        self._emit(
            handle,
            ReplicaFailed(
                handle.job_id,
                replica_index=replica_index,
                attempts=attempts,
                error=repr(error),
                permanent=permanent,
            ),
        )
        if len(handle._failures) == handle.total_replicas:
            self._fail(
                handle,
                RuntimeError(
                    f"all {handle.total_replicas} replica(s) of "
                    f"{handle.job_id} were quarantined; last error: {error!r}"
                ),
            )
            return
        self._finish_if_done(handle)

    def _finish_if_done(self, handle: JobHandle) -> None:
        """Complete the job once every replica has settled (done or failed)."""
        results = handle._results
        if handle.finished or not results:
            return
        if len(results) + len(handle._failures) < handle.total_replicas:
            return
        merged = select_minimum_replica([results[index] for index in sorted(results)])
        handle.state = JobState.COMPLETED
        handle._merged = merged
        self.metrics.jobs_completed += 1
        self._journal_record(handle, "job-completed", job=handle.job_id)
        self._retire(handle, JobCompleted(handle.job_id, result=merged))

    def _fail(self, handle: JobHandle, error: BaseException) -> None:
        if handle.finished:
            return
        handle.state = JobState.FAILED
        self.metrics.jobs_failed += 1
        handle._error = error
        self._journal_record(handle, "job-failed", job=handle.job_id, error=repr(error))
        self._retire(handle, JobFailed(handle.job_id, error=repr(error)))

    def _retire(self, handle: JobHandle, terminal: JobEvent) -> None:
        """Emit a finished job's terminal event, compact its handle and
        retain it, dropping the oldest finished job past the bound."""
        self._emit(handle, terminal)
        handle.config = handle.profile = handle.keys = handle._results = None
        self._finished.append(handle.job_id)
        while len(self._finished) > RETAINED_TERMINAL_JOBS:
            del self.jobs[self._finished.popleft()]
            self.metrics.jobs_evicted += 1

    def _emit(self, handle: JobHandle, event: JobEvent) -> None:
        handle._append(event)

    def _observe_rate(self, cost: int, elapsed: float) -> None:
        if elapsed > 0:
            self._cost_rate = 0.5 * (self._cost_rate + cost / elapsed)

    # ---------------------------------------------------------------- health
    def _journal_record(
        self, handle: Optional[JobHandle], record_type: str, **payload: Any
    ) -> None:
        """Append one journal record; a journal fault degrades, never fails.

        A failed append (disk full, torn write) latches the journal into
        degraded mode: the service keeps running without durability, the
        condition is announced via :class:`ServiceDegraded` and the
        ``health`` metrics block, and no job is failed because of it.
        """
        if self.journal is None or self._journal_degraded:
            return
        try:
            self.journal.append(record_type, **payload)
        except (OSError, JournalError) as error:
            self._journal_degraded = True
            self._journal_reason = f"journal append failed: {error}"
            self._announce_degraded(handle, "journal", self._journal_reason)

    def _note_cache_health(self, handle: JobHandle) -> None:
        """Announce cache degradation once, on the stream that detected it."""
        if self.cache is not None and self.cache.degraded:
            self._announce_degraded(handle, "cache", self.cache.degraded_reason)

    def _announce_degraded(
        self, handle: Optional[JobHandle], component: str, reason: str
    ) -> None:
        if component in self._degraded_announced:
            return
        self._degraded_announced.add(component)
        if handle is not None:
            self._emit(
                handle,
                ServiceDegraded(handle.job_id, component=component, reason=reason),
            )

    def health(self) -> Dict[str, Any]:
        """The degradation report embedded in every metrics snapshot."""
        components: Dict[str, str] = {}
        if self.cache is not None and self.cache.degraded:
            components["cache"] = self.cache.degraded_reason
        if self._journal_degraded:
            components["journal"] = self._journal_reason
        return {"degraded": bool(components), "components": components}

    # -------------------------------------------------------------- introspect
    def snapshot(self) -> Dict[str, Any]:
        """Metrics snapshot including cache stats, health and client shares."""
        cache_stats = self.cache.stats_dict() if self.cache is not None else None
        self.metrics.jobs_retained = len(self.jobs)
        return self.metrics.snapshot(
            cache_stats, self.health(), self.scheduler.clients_dict()
        )


def _copy_result(result: RunResult) -> RunResult:
    """A private copy of a shared (deduped) result, safe to merge-mutate."""
    return replace(
        result,
        traffic_bytes_by_category=dict(result.traffic_bytes_by_category),
    )
