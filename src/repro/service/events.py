"""Streaming progress events yielded by :meth:`JobHandle.events`.

A job's events are one replayable log: every :meth:`JobHandle.events`
consumer -- however many, whenever it starts, even after the job
finished -- replays the log from the first event and then follows live,
so all of them see the identical sequence.

Every submitted job streams a strictly-ordered event sequence:

1. exactly one :class:`JobAdmitted` first;
2. zero or more ``(`` :class:`ReplicaCompleted` ``,`` :class:`JobProgress`
   ``)`` pairs, one pair per finished replica, in completion order (the
   progress event carries the partial statistics so far);
3. exactly one terminal event last -- :class:`JobCompleted` with the
   merged result, :class:`JobCancelled`, or :class:`JobFailed`.

*Informational* events -- :class:`ReplicaRetried`, :class:`ReplicaFailed`
and :class:`ServiceDegraded` (all with ``informational = True``) -- may
appear anywhere between the admitted and terminal events without breaking
the pair structure above: contract checkers filter them out first.  A
retried replica emits one :class:`ReplicaRetried` per re-attempt; a
replica whose attempt budget is exhausted emits one :class:`ReplicaFailed`
(quarantine) instead of a completion pair.

After the terminal event the stream ends; a cancelled job emits nothing
further even if shared replicas finish later for other jobs' benefit.
A job is admitted and registered in one step, so no stream lacks the
leading ``JobAdmitted``: a submission the admission controller rejects
has no job id and no stream at all.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.system.results import RunResult

#: How a finished replica's result was obtained.
SOURCE_COMPUTED = "computed"
SOURCE_CACHE = "cache"
SOURCE_DEDUPED = "deduped"

#: Client id used when a submission does not name one.
DEFAULT_CLIENT_ID = "default"


class JobCancelledError(RuntimeError):
    """Awaiting the result of a job that was cancelled (the job manager's
    :meth:`JobHandle.result` and :meth:`ServiceClient.wait` both raise it)."""

    def __init__(self, job_id: str):
        super().__init__(f"job {job_id} was cancelled")
        self.job_id = job_id


@dataclass(frozen=True)
class JobEvent:
    """Base of every streamed event; ``terminal`` ends the stream.

    ``informational`` marks events that may interleave freely between the
    admitted and terminal events (retries, quarantines, degradation
    notices) -- ordering checkers filter them before pairing replica and
    progress events.
    """

    job_id: str

    terminal = False
    informational = False


@dataclass(frozen=True)
class JobAdmitted(JobEvent):
    """The job passed admission control and its replicas were enqueued."""

    label: str
    total_replicas: int
    priority: int


@dataclass(frozen=True)
class ReplicaCompleted(JobEvent):
    """One replica finished; ``source`` says whether it was simulated,
    replayed from the result cache, or joined onto another job's in-flight
    computation of the identical replica."""

    replica_index: int
    source: str
    runtime_ns: int


@dataclass(frozen=True)
class ReplicaRetried(JobEvent):
    """Informational: a transient replica failure triggered a retry.

    ``attempt`` is the attempt that just failed (1-based); the replica is
    re-run after ``backoff_s`` seconds, up to the manager's attempt
    budget."""

    replica_index: int
    attempt: int
    error: str
    backoff_s: float

    informational = True


@dataclass(frozen=True)
class ReplicaFailed(JobEvent):
    """Informational: a replica exhausted its attempt budget (or failed
    permanently) and was quarantined; sibling replicas keep running and
    the job completes with the replicas that did finish."""

    replica_index: int
    attempts: int
    error: str
    permanent: bool

    informational = True


@dataclass(frozen=True)
class ServiceDegraded(JobEvent):
    """Informational: a service component entered degraded mode (e.g. the
    result cache fell back to memory-only after a disk fault).  Emitted at
    most once per component, on the stream of the job whose operation
    detected the condition."""

    component: str
    reason: str

    informational = True


@dataclass(frozen=True)
class JobProgress(JobEvent):
    """Partial statistics after each replica: completion count and the
    minimum runtime / total misses over the replicas finished so far."""

    completed: int
    total: int
    best_runtime_ns: int
    misses: int


@dataclass(frozen=True)
class JobCompleted(JobEvent):
    """Terminal: every replica finished; ``result`` is the merged minimum."""

    result: RunResult

    terminal = True


@dataclass(frozen=True)
class JobCancelled(JobEvent):
    """Terminal: the job was cancelled before all replicas finished."""

    terminal = True


@dataclass(frozen=True)
class JobFailed(JobEvent):
    """Terminal: a replica raised; ``error`` carries the repr."""

    error: str

    terminal = True


def describe(event: JobEvent) -> str:
    """One human-readable line per event (the CLI's stream format)."""
    if isinstance(event, JobAdmitted):
        return (
            f"[{event.job_id}] admitted {event.label} "
            f"({event.total_replicas} replica(s), priority {event.priority})"
        )
    if isinstance(event, ReplicaCompleted):
        return (
            f"[{event.job_id}] replica {event.replica_index} {event.source} "
            f"runtime={event.runtime_ns} ns"
        )
    if isinstance(event, ReplicaRetried):
        return (
            f"[{event.job_id}] replica {event.replica_index} retrying after "
            f"attempt {event.attempt} failed ({event.error}); "
            f"backoff {event.backoff_s:.2f}s"
        )
    if isinstance(event, ReplicaFailed):
        kind = "permanent failure" if event.permanent else "attempts exhausted"
        return (
            f"[{event.job_id}] replica {event.replica_index} quarantined "
            f"after {event.attempts} attempt(s) ({kind}): {event.error}"
        )
    if isinstance(event, ServiceDegraded):
        return f"[{event.job_id}] DEGRADED {event.component}: {event.reason}"
    if isinstance(event, JobProgress):
        return (
            f"[{event.job_id}] progress {event.completed}/{event.total} "
            f"best_runtime={event.best_runtime_ns} ns misses={event.misses}"
        )
    if isinstance(event, JobCompleted):
        return (
            f"[{event.job_id}] completed runtime={event.result.runtime_ns} ns "
            f"over {event.result.replicas} replica(s)"
        )
    if isinstance(event, JobCancelled):
        return f"[{event.job_id}] cancelled"
    if isinstance(event, JobFailed):
        return f"[{event.job_id}] failed: {event.error}"
    return f"[{event.job_id}] {event!r}"
