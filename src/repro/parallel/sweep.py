"""Sweep orchestration: fan out experiment matrices, merge deterministically.

An *entry* is one experiment -- ``(config, profile)`` -- whose result is the
minimum-runtime replica over ``config.perturbation_replicas`` perturbed
reruns (the paper's Section 4.3 methodology).  :func:`run_matrix` expands
every entry into its replica jobs, executes the flat job list through the
process pool, and folds each entry's replicas back down with the *same*
selection rule the serial runner uses, so parallel results are bit-identical
to serial ones.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.parallel.executor import run_replica_jobs
from repro.parallel.jobs import ReplicaJob, RunResult
from repro.system.config import SystemConfig
from repro.workloads.generator import Reference
from repro.workloads.profiles import WorkloadProfile

#: One experiment: a fully-specified config plus the workload profile.
MatrixEntry = Tuple[SystemConfig, WorkloadProfile]


def select_minimum_replica(results: Sequence[RunResult]) -> RunResult:
    """Pick the minimum-runtime replica.

    Ties break toward the lowest replica index (the first result is kept
    unless a strictly faster one appears), so with results in submission
    order the merge is the same for every ``jobs`` value.
    """
    if not results:
        raise ValueError("no replica results to merge")
    best: Optional[RunResult] = None
    for result in results:
        if best is None or result.runtime_ns < best.runtime_ns:
            best = result
    best.replicas = len(results)
    return best


def expand_entry(
    config: SystemConfig,
    profile: WorkloadProfile,
    streams: Optional[Sequence[Sequence[Reference]]] = None,
) -> List[ReplicaJob]:
    """All replica jobs for one experiment entry."""
    return [
        ReplicaJob(config=config, profile=profile, replica_index=index, streams=streams)
        for index in range(config.perturbation_replicas)
    ]


def run_matrix(
    entries: Sequence[MatrixEntry], *, jobs: Optional[int] = 1
) -> List[RunResult]:
    """Run every experiment entry; return one merged RunResult per entry.

    The whole matrix -- every workload, protocol, network and replica -- is
    flattened into a single job pool so the executor can keep all workers
    busy across entry boundaries, then regrouped per entry for the
    minimum-replica selection.
    """
    specs: List[ReplicaJob] = []
    spans: List[Tuple[int, int]] = []
    for config, profile in entries:
        spans.append((len(specs), config.perturbation_replicas))
        specs.extend(expand_entry(config, profile))
    results = run_replica_jobs(specs, jobs=jobs)
    return [
        select_minimum_replica(results[start : start + count])
        for start, count in spans
    ]
