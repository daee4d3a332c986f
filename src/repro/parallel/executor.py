"""Process-pool execution of replica jobs, with a serial fallback.

The executor is deliberately dumb: it maps :func:`execute_replica_job` over a
job list and returns results *in submission order* (``Executor.map``
preserves order), so callers can merge deterministically no matter how the
pool interleaved the actual work.  ``jobs=1`` runs everything in-process with
no pool at all -- the fallback path used by tests, debuggers and profilers.

A worker that dies -- a segfault, an OOM kill, or an exception during the
worker bootstrap import -- surfaces from :mod:`concurrent.futures` as a bare
``BrokenProcessPool`` with no cause attached.  :func:`run_replica_jobs`
translates it into :class:`WorkerPoolError` with an actionable message (and
the original exception chained), and the service layer's pool backend does
the same before retrying.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.parallel.jobs import (
    ReplicaJob,
    RunResult,
    build_streams_cached,
    execute_replica_job,
)


class WorkerPoolError(RuntimeError):
    """A pool worker died before returning its result.

    Raised in place of the bare ``BrokenProcessPool``, with a message that
    says what to check; the original exception is chained as the cause.
    """


def worker_crash_message(context: str) -> str:
    """The actionable diagnosis attached to every worker-death error."""
    return (
        f"a worker process died while {context}; likely causes: a crash in "
        "native code (segfault), the kernel OOM killer, or an exception "
        "during worker bootstrap (verify 'python -c \"import repro\"' "
        "succeeds in a fresh interpreter and that each worker has enough "
        "memory)"
    )


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``jobs`` knob: ``None``/1 = serial, 0 = one per CPU."""
    if jobs is None:
        return 1
    if jobs < 0:
        raise ValueError("jobs must be non-negative (0 = auto)")
    if jobs == 0:
        return os.cpu_count() or 1
    return jobs


def run_replica_jobs(
    specs: Sequence[ReplicaJob], *, jobs: Optional[int] = 1
) -> List[RunResult]:
    """Execute every job and return results in submission order.

    Serial (``jobs`` <= 1 or a single job) and parallel execution are
    bit-identical: each job is self-contained and deterministic, and
    ordering is restored by ``Executor.map``.  A dead worker raises
    :class:`WorkerPoolError` instead of a bare ``BrokenProcessPool``.
    """
    workers = min(resolve_jobs(jobs), len(specs))
    if workers <= 1:
        return [execute_replica_job(spec) for spec in specs]

    # Only the pool path loads the pool machinery: a serial caller, the
    # service gateway and the replica worker never import it.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    # Warm the parent's stream cache so fork-based pools inherit every
    # stream set copy-on-write instead of rebuilding per worker.  Spawn
    # platforms inherit nothing, so warming there would only serialise
    # work the workers must redo anyway.
    if multiprocessing.get_start_method() == "fork":
        for spec in specs:
            if spec.streams is None:
                build_streams_cached(spec.profile, spec.config)

    # Chunk so neighbouring jobs (same profile/config, differing only in
    # protocol or replica) tend to land in the same worker, which keeps the
    # per-process stream cache hot on spawn-based platforms too.
    chunksize = max(1, len(specs) // (workers * 4))
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(execute_replica_job, specs, chunksize=chunksize))
    except BrokenProcessPool as error:
        raise WorkerPoolError(
            worker_crash_message(f"running {len(specs)} replica job(s)")
        ) from error
