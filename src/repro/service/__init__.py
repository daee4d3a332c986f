"""Simulation-as-a-service: job manager + content-addressed result cache.

This package turns the one-shot experiment API into a long-lived service:

* :mod:`repro.service.manager` -- :class:`JobManager`, the asyncio
  front-end with per-client fair scheduling, bounded-cost admission
  control, per-job cancellation, in-flight deduplication, and a
  fault-tolerance layer (transient-failure retries with deterministic
  backoff, per-replica deadlines, worker-crash pool rebuilds, replica
  quarantine, journal-driven crash recovery).  Cache hits resolve at
  admission; misses compute in :class:`WorkerPoolBackend`, warm worker
  subprocesses off the event loop.
* :mod:`repro.service.fairness` -- :class:`DeficitRoundRobinQueue`, the
  weighted deficit-round-robin scheduler behind the manager: one
  priority+FIFO lane per client, starvation bounded by construction.
* :mod:`repro.service.server` -- :class:`GatewayServer`, the stdlib
  HTTP/WebSocket network front-end (``POST /v1/jobs``, status, cancel,
  NDJSON/WebSocket event streams, health and metrics), and
  :class:`ServerThread`, its synchronous single-process host; the
  matching blocking client is :class:`repro.client.ServiceClient`.
* :mod:`repro.service.wire` -- the typed, schema-versioned wire messages
  (requests, responses, streamed events) both ends of the gateway speak.
* :mod:`repro.service.cache` -- :class:`ResultCache`, the
  content-addressed (SHA-256 of the canonical experiment document)
  schema-versioned result store; cache hits replay bit-identically to
  recomputation, and disk faults degrade it to memory-only operation
  instead of failing jobs.  :class:`JobManager` is its only reader: it
  resolves every replica against the cache at admission.
* :mod:`repro.service.journal` -- :class:`JobJournal`, the append-only,
  fsync'd, CRC-checked job journal behind :meth:`JobManager.recover`.  It
  records submissions, recoveries and terminal transitions; finished
  replicas are the result cache's to record.  Torn trailing records are
  truncated, not fatal.
* :mod:`repro.service.faults` -- :class:`FaultPlan`, the deterministic
  fault-injection harness (planned crashes, timeouts, I/O errors at
  named sites) that exercises every recovery path in tests.
* :mod:`repro.service.events` -- the streaming progress events yielded
  by :meth:`JobHandle.events` and their ordering contract.
* :mod:`repro.service.metrics` -- :class:`ServiceMetrics`, queue /
  cache / fault / health / per-client counters rendered as a schema-v4
  JSON snapshot.
* :mod:`repro.service.cli` -- the ``python -m repro.service`` front-end:
  one-shot requests and the ``--listen`` gateway.
"""

from __future__ import annotations

from repro.service.cache import (
    RESULT_SCHEMA_VERSION,
    CacheError,
    CacheStats,
    ResultCache,
    entry_keys,
    replica_key,
)
from repro.service.events import (
    SOURCE_CACHE,
    SOURCE_COMPUTED,
    SOURCE_DEDUPED,
    JobAdmitted,
    JobCancelled,
    JobCompleted,
    JobEvent,
    JobFailed,
    JobProgress,
    ReplicaCompleted,
    ReplicaFailed,
    ReplicaRetried,
    ServiceDegraded,
)
from repro.service.fairness import (
    DEFAULT_CLIENT_ID,
    DEFAULT_WEIGHT,
    DeficitRoundRobinQueue,
)
from repro.service.faults import (
    FAULT_KINDS,
    FAULT_SITES,
    Fault,
    FaultingPoolBackend,
    FaultPlan,
    InjectedPermanentError,
    InjectedWorkerCrash,
)
from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournaledJob,
    JournalError,
)
from repro.service.manager import (
    DEFAULT_MAX_ATTEMPTS,
    DEFAULT_MAX_PENDING_COST,
    AdmissionError,
    JobCancelledError,
    JobHandle,
    JobManager,
    JobState,
    PoolBackend,
    WorkerCrashError,
    WorkerPoolBackend,
    is_transient,
    job_cost,
    make_backend,
    replica_cost,
)
from repro.service.metrics import (
    METRICS_SCHEMA_VERSION,
    MetricsSchemaError,
    ServiceMetrics,
    validate_metrics_snapshot,
)
from repro.service.server import GatewayServer, ServerThread
from repro.service.wire import (
    WIRE_SCHEMA_VERSION,
    CancelResponse,
    JobStatus,
    SubmitAccepted,
    SubmitRejected,
    SubmitRequest,
    WireError,
    error_to_wire,
    event_from_wire,
    event_to_wire,
)

__all__ = [
    "AdmissionError",
    "CacheError",
    "CacheStats",
    "CancelResponse",
    "DEFAULT_CLIENT_ID",
    "DEFAULT_MAX_ATTEMPTS",
    "DEFAULT_MAX_PENDING_COST",
    "DEFAULT_WEIGHT",
    "DeficitRoundRobinQueue",
    "FAULT_KINDS",
    "FAULT_SITES",
    "Fault",
    "FaultPlan",
    "FaultingPoolBackend",
    "GatewayServer",
    "InjectedPermanentError",
    "InjectedWorkerCrash",
    "JOURNAL_SCHEMA_VERSION",
    "JobAdmitted",
    "JobCancelled",
    "JobCancelledError",
    "JobCompleted",
    "JobEvent",
    "JobFailed",
    "JobHandle",
    "JobJournal",
    "JobManager",
    "JobProgress",
    "JobState",
    "JobStatus",
    "JournalError",
    "JournaledJob",
    "METRICS_SCHEMA_VERSION",
    "MetricsSchemaError",
    "PoolBackend",
    "RESULT_SCHEMA_VERSION",
    "ReplicaCompleted",
    "ReplicaFailed",
    "ReplicaRetried",
    "ResultCache",
    "SOURCE_CACHE",
    "SOURCE_COMPUTED",
    "SOURCE_DEDUPED",
    "ServerThread",
    "ServiceDegraded",
    "ServiceMetrics",
    "SubmitAccepted",
    "SubmitRejected",
    "SubmitRequest",
    "WIRE_SCHEMA_VERSION",
    "WireError",
    "WorkerCrashError",
    "WorkerPoolBackend",
    "entry_keys",
    "error_to_wire",
    "event_from_wire",
    "event_to_wire",
    "is_transient",
    "job_cost",
    "make_backend",
    "replica_cost",
    "replica_key",
    "validate_metrics_snapshot",
]
