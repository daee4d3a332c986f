"""Simulation-as-a-service: job manager + content-addressed result cache.

This package turns the one-shot experiment API into a long-lived service.
It imports none of its submodules: import names from their defining
module (``from repro.service.manager import JobManager``), so a process
loads only the parts it runs -- a :class:`repro.client.ServiceClient`
loads the wire vocabulary, not the gateway or the job manager.

* :mod:`repro.service.manager` -- :class:`JobManager`, the asyncio
  front-end with per-client fair scheduling, bounded-cost admission
  control, per-job cancellation, in-flight deduplication, and a
  fault-tolerance layer (transient-failure retries with deterministic
  backoff, per-replica deadlines, worker-crash pool rebuilds, replica
  quarantine, journal-driven crash recovery).  ``submit_async`` is its
  one way in: admission, job numbering and registration are one step.
  Cache hits resolve at admission; misses compute in
  :class:`WorkerPoolBackend`, warm worker subprocesses off the event loop.
* :mod:`repro.service.fairness` -- :class:`DeficitRoundRobinQueue`, the
  weighted deficit-round-robin scheduler behind the manager: one
  priority+FIFO lane per client, starvation bounded by construction.
* :mod:`repro.service.server` -- :class:`GatewayServer`, the stdlib
  HTTP network front-end (``POST /v1/jobs``, status, cancel, NDJSON
  event streams, health and metrics), and
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
* :mod:`repro.service.events` -- the streaming progress events yielded
  by :meth:`JobHandle.events` and their ordering contract, plus
  :class:`JobCancelledError` and the default client id, which the
  manager and the client share.
* :mod:`repro.service.metrics` -- :class:`ServiceMetrics`, queue /
  cache / fault / health / per-client counters rendered as a schema-v4
  JSON snapshot.
* :mod:`repro.service.cli` -- the ``python -m repro.service`` front-end:
  one-shot requests and the ``--listen`` gateway.
* :mod:`repro.service.faults` -- :class:`FaultPlan`, the deterministic
  fault-injection schedule.  Test-only: no production module imports
  it; tests inject disk and journal faults by wrapping the real I/O
  calls.
"""
