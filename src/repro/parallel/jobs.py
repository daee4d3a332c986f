"""Picklable job specifications and the worker entry point.

A :class:`ReplicaJob` names one complete simulation: a workload profile, a
system configuration and the index of one perturbation replica.  Jobs carry
only declarative state (frozen dataclasses of ints, floats and strings), so
they pickle cheaply across process boundaries; the simulated system itself is
always built *inside* the worker from the job description.

Reference streams are usually not shipped with the job either: they are a
deterministic function of ``(profile, num_nodes, seed)`` (see
:func:`repro.system.builder.build_streams`), so each worker process rebuilds
them through a per-process memo table, :func:`build_streams_cached`.  The
orchestrator warms the parent's table before forking its pool, so on
fork-based platforms every worker shares the parent's already-built streams
via copy-on-write and each distinct ``(profile, config)`` pair is built
exactly once per sweep.  Hand-written streams that cannot be regenerated are
attached to the job explicitly and pickled along with it.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.sim.randomness import PerturbationModel
from repro.system.config import SystemConfig
from repro.system.results import RunResult
from repro.workloads.generator import Reference
from repro.workloads.profiles import WorkloadProfile


@dataclass(frozen=True)
class ReplicaJob:
    """One (profile x config x perturbation-replica) simulation."""

    config: SystemConfig
    profile: WorkloadProfile
    replica_index: int
    #: Explicit per-node streams; ``None`` means "rebuild from the profile".
    streams: Optional[Sequence[Sequence[Reference]]] = None

    def __post_init__(self) -> None:
        if not 0 <= self.replica_index < self.config.perturbation_replicas:
            raise ValueError(
                f"replica_index {self.replica_index} out of range for "
                f"{self.config.perturbation_replicas} replicas"
            )


# Per-process memo table; key is (profile, num_nodes, seed), the only
# inputs build_streams depends on.  Bounded LRU so long-lived processes
# sweeping many distinct (profile, scale, seed) combinations don't pin every
# stream set they ever built.
_STREAM_CACHE_LIMIT = 8
_StreamKey = Tuple[WorkloadProfile, int, int]
_STREAM_CACHE: "OrderedDict[_StreamKey, List[Sequence[Reference]]]" = OrderedDict()


def stream_cache_key(profile: WorkloadProfile, config: SystemConfig) -> _StreamKey:
    return (profile, config.num_nodes, config.seed)


def build_streams_cached(
    profile: WorkloadProfile, config: SystemConfig
) -> List[Sequence[Reference]]:
    """Build (or reuse) the reference streams for one (profile, config).

    Streams never depend on the protocol or network, so every protocol run
    and every perturbation replica of a sweep shares one cached copy.
    """
    key = stream_cache_key(profile, config)
    streams = _STREAM_CACHE.get(key)
    if streams is None:
        from repro.system.builder import build_streams

        streams = build_streams(profile, config)
        _STREAM_CACHE[key] = streams
        while len(_STREAM_CACHE) > _STREAM_CACHE_LIMIT:
            _STREAM_CACHE.popitem(last=False)
    else:
        _STREAM_CACHE.move_to_end(key)
    return streams


def clear_stream_cache() -> None:
    """Drop all memoised streams (tests and long-lived servers)."""
    _STREAM_CACHE.clear()


def replica_perturbation(config: SystemConfig, replica_index: int) -> PerturbationModel:
    """The perturbation model of replica ``replica_index`` of ``config``."""
    replicas = list(
        PerturbationModel.replicas(
            config.seed,
            config.perturbation_replicas,
            config.perturbation_max_delay_ns,
        )
    )
    return replicas[replica_index]


def execute_replica_job(job: ReplicaJob) -> RunResult:
    """Worker entry point: run one replica and return its RunResult.

    Must stay a module-level function so :mod:`concurrent.futures` can pickle
    it by reference.  The simulator is imported here and in
    :func:`build_streams_cached`, not at module level, so a process that
    only describes jobs (the service gateway) never loads it.
    """
    from repro.system.simulation import SimulationRunner

    streams = (
        job.streams
        if job.streams is not None
        else build_streams_cached(job.profile, job.config)
    )
    runner = SimulationRunner(job.config, job.profile)
    return runner.run_replica(
        streams, replica_perturbation(job.config, job.replica_index)
    )
