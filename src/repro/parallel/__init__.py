"""Parallel experiment orchestration (the ``jobs=`` API).

The paper's methodology (Section 4.3) reports the *minimum* runtime over a
set of perturbed replicas, replayed across three protocols, two networks and
five workloads -- an embarrassingly parallel sweep.  This package fans those
(workload x protocol x network x replica) simulations out over a process
pool:

* :mod:`repro.parallel.jobs` -- picklable :class:`ReplicaJob` specs, the
  module-level worker entry point, and a per-process stream-building cache
  so identical reference streams are built once per (profile, config) and
  shared across protocol runs and replicas;
* :mod:`repro.parallel.executor` -- the :mod:`concurrent.futures` pool with
  a serial in-process fallback when ``jobs=1``;
* :mod:`repro.parallel.sweep` -- matrix expansion and deterministic
  minimum-replica merging;
* :mod:`repro.parallel.worker` -- the long-lived replica worker
  subprocess (``python -m repro.parallel.worker``) behind the service's
  :class:`~repro.service.manager.WorkerPoolBackend`.  It is not imported
  here, so ``-m`` runs it as a fresh module.

The ``jobs=`` knob
==================

``jobs`` is a call argument, never part of the experiment: no
:class:`repro.system.config.SystemConfig` field carries it.
``SimulationRunner.run`` and :func:`run_matrix` take it directly, and the
high-level :mod:`repro.api` entry points (:func:`~repro.api.run_experiment`,
:func:`~repro.api.compare_protocols`, :func:`~repro.api.sweep_workloads`)
forward ``jobs=`` down to one shared job pool spanning the whole sweep.
``jobs=1`` (the default) is strictly serial in-process execution;
``jobs=N`` uses N worker processes; ``jobs=0`` uses one worker per host
CPU.

Determinism guarantee
=====================

``jobs`` never changes results, only wall-clock time.  Three properties make
parallel execution bit-identical to serial:

1. every job is self-contained and deterministic -- the simulated system is
   rebuilt inside the worker from the job's (config, profile, replica seed),
   and reference streams are a pure function of (profile, num_nodes, seed);
2. the executor returns results in submission order regardless of how the
   pool interleaved the work;
3. serial and parallel runs share one minimum-replica merge, whose
   tie-break toward the lowest replica index depends only on that order.

``tests/parallel/test_parallel_sweep.py`` pins this guarantee by comparing
``compare_protocols(jobs=4)`` field-for-field against ``jobs=1``.
"""

from repro.parallel.executor import (
    WorkerPoolError,
    resolve_jobs,
    run_replica_jobs,
)
from repro.parallel.jobs import (
    ReplicaJob,
    build_streams_cached,
    clear_stream_cache,
    execute_replica_job,
)
from repro.parallel.sweep import (
    expand_entry,
    run_matrix,
    select_minimum_replica,
)

__all__ = [
    "ReplicaJob",
    "WorkerPoolError",
    "build_streams_cached",
    "clear_stream_cache",
    "execute_replica_job",
    "expand_entry",
    "resolve_jobs",
    "run_matrix",
    "run_replica_jobs",
    "select_minimum_replica",
]
