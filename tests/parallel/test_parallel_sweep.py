"""Tests for the ``repro.parallel`` orchestrator.

The headline property is the determinism guarantee: fanning a sweep out over
a process pool must return results bit-identical to serial execution.  These
tests run at a very small scale so the process-pool cases stay fast even on
single-core CI machines.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import api
from repro.parallel import (
    ReplicaJob,
    build_streams_cached,
    clear_stream_cache,
    execute_replica_job,
    resolve_jobs,
    run_matrix,
    select_minimum_replica,
)
from repro.parallel.jobs import _STREAM_CACHE
from repro.system.config import SystemConfig
from repro.system.simulation import SimulationRunner
from repro.workloads.profiles import get_profile

#: Small enough that a full 3-protocol x 2-replica grid runs in seconds.
SCALE = 0.05
WORKLOAD = "barnes"


def tiny_config(**overrides) -> SystemConfig:
    return SystemConfig(**overrides)


# ------------------------------------------------------------------ plumbing
class TestResolveJobs:
    def test_none_and_one_are_serial(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_auto(self):
        assert resolve_jobs(0) >= 1

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-2)


class TestReplicaJob:
    def test_replica_index_validated(self):
        config = tiny_config(perturbation_replicas=2)
        with pytest.raises(ValueError):
            ReplicaJob(config=config, profile=get_profile(WORKLOAD),
                       replica_index=2)

    def test_execute_matches_serial_runner(self):
        profile = get_profile(WORKLOAD).scaled(SCALE)
        config = tiny_config()
        job = ReplicaJob(config=config, profile=profile, replica_index=0)
        direct = SimulationRunner(config, profile).run()
        assert execute_replica_job(job) == direct


class TestStreamCache:
    def test_streams_built_once_per_profile_and_config(self):
        clear_stream_cache()
        profile = get_profile(WORKLOAD).scaled(SCALE)
        butterfly = tiny_config(network="butterfly")
        torus = tiny_config(network="torus")
        first = build_streams_cached(profile, butterfly)
        assert build_streams_cached(profile, butterfly) is first
        # Streams never depend on the network, so the torus config shares
        # the butterfly's cache entry.
        assert build_streams_cached(profile, torus) is first
        assert len(_STREAM_CACHE) == 1
        clear_stream_cache()

    def test_distinct_seed_gets_distinct_streams(self):
        clear_stream_cache()
        profile = get_profile(WORKLOAD).scaled(SCALE)
        base = build_streams_cached(profile, tiny_config())
        other = build_streams_cached(profile, tiny_config(seed=7))
        assert other is not base
        clear_stream_cache()


class TestMinimumReplicaSelection:
    def _result(self, runtime: int):
        return dataclasses.replace(
            execute_replica_job(ReplicaJob(
                config=tiny_config(),
                profile=get_profile(WORKLOAD).scaled(SCALE),
                replica_index=0)),
            runtime_ns=runtime)

    def test_picks_minimum_runtime(self):
        results = [self._result(30), self._result(10), self._result(20)]
        assert select_minimum_replica(results).runtime_ns == 10

    def test_ties_break_toward_earliest_replica(self):
        first, second = self._result(10), self._result(10)
        assert select_minimum_replica([first, second]) is first

    def test_sets_replica_count(self):
        results = [self._result(10), self._result(20)]
        assert select_minimum_replica(results).replicas == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            select_minimum_replica([])


# -------------------------------------------------------------- determinism
class TestSerialParallelDeterminism:
    def test_compare_protocols_bit_identical(self):
        kwargs = dict(workload=WORKLOAD, network="butterfly", scale=SCALE,
                      perturbation_replicas=2)
        serial = api.compare_protocols(jobs=1, **kwargs)
        parallel = api.compare_protocols(jobs=4, **kwargs)
        assert serial.protocols() == parallel.protocols()
        for protocol in serial.protocols():
            assert serial.results[protocol] == parallel.results[protocol]

    def test_runner_replica_parallelism_bit_identical(self):
        profile = get_profile(WORKLOAD).scaled(SCALE)
        config = tiny_config(perturbation_replicas=3)
        serial = SimulationRunner(config, profile).run(jobs=1)
        parallel = SimulationRunner(config, profile).run(jobs=3)
        assert serial == parallel

    def test_explicit_streams_ship_with_the_job(self):
        profile = get_profile(WORKLOAD).scaled(SCALE)
        config = tiny_config(perturbation_replicas=2)
        # Streams from a *different* seed than the config's, so a worker
        # that wrongly rebuilt from the config would produce different
        # results.
        from repro.system.builder import build_streams
        streams = build_streams(profile, config, seed=99)
        serial = SimulationRunner(config, profile).run(streams, jobs=1)
        parallel = SimulationRunner(config, profile).run(streams, jobs=2)
        assert serial == parallel

    def test_run_matrix_orders_results_by_entry(self):
        profile = get_profile(WORKLOAD).scaled(SCALE)
        entries = [(tiny_config(protocol=protocol), profile)
                   for protocol in ("diropt", "ts-snoop")]
        results = run_matrix(entries, jobs=2)
        assert [result.protocol for result in results] == \
            ["diropt", "ts-snoop"]


# ------------------------------------------------------------ worker deaths
class TestWorkerCrashTranslation:
    def test_broken_pool_raises_actionable_worker_pool_error(
            self, monkeypatch):
        from concurrent.futures.process import BrokenProcessPool
        from repro.parallel.executor import (
            WorkerPoolError,
            run_replica_jobs,
        )

        class BrokenPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *_exc_info):
                return False

            def map(self, *_args, **_kwargs):
                raise BrokenProcessPool("a child process terminated abruptly")

        monkeypatch.setattr(
            "concurrent.futures.ProcessPoolExecutor", BrokenPool)
        profile = get_profile(WORKLOAD).scaled(SCALE)
        config = tiny_config(perturbation_replicas=2)
        jobs = [ReplicaJob(config=config, profile=profile, replica_index=i)
                for i in range(2)]
        with pytest.raises(WorkerPoolError) as excinfo:
            run_replica_jobs(jobs, jobs=2)
        assert "import repro" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, BrokenProcessPool)

    def test_message_names_the_likely_causes(self):
        from repro.parallel.executor import worker_crash_message

        message = worker_crash_message("running the frobnicator")
        assert "running the frobnicator" in message
        for hint in ("segfault", "OOM", "import repro", "memory"):
            assert hint in message
