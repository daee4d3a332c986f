"""The worker-subprocess pool backend and its wire protocol.

:class:`~repro.service.manager.WorkerPoolBackend` starts its workers on
the first replica that needs computing and must reap every one of them:
on :meth:`JobManager.aclose`, on :meth:`ServerThread.stop`, after a
crash (the next run starts a fresh worker), and when ``replica_timeout``
abandons a replica (the worker is killed, so it stops using CPU).  The
frame protocol of :mod:`repro.parallel.worker` carries results and
errors: an error keeps its type when it pickles, arrives as a permanent
:class:`~repro.parallel.worker.ReplicaError` when it does not, and a
stray write to the worker's stdout cannot corrupt a reply.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.api.spec import ExperimentSpec
from repro.client import ServiceClient
from repro.parallel import worker as worker_module
from repro.parallel.jobs import ReplicaJob, execute_replica_job
from repro.parallel.worker import (
    HEADER,
    ReplicaError,
    answer,
    encode_frame,
    reply_outcome,
)
from repro.service.cache import ResultCache, replica_key
from repro.service.events import JobFailed, ReplicaFailed
from repro.service.manager import (
    JobManager,
    WorkerCrashError,
    WorkerPoolBackend,
    is_transient,
)
from repro.service.server import ServerThread
from tests.service.backends import process_exists

SPEC = ExperimentSpec.make("oltp", scale=0.05)
SPEC2 = SPEC.with_overrides(perturbation_replicas=2)
SRC = Path(__file__).resolve().parents[2] / "src"


def _job(spec=SPEC, replica_index=0, **kwargs) -> ReplicaJob:
    return ReplicaJob(
        config=spec.config(),
        profile=spec.profile(),
        replica_index=replica_index,
        **kwargs,
    )


async def _collect(handle):
    return [event async for event in handle.events()]


class TestWorkerLifecycle:
    def test_workers_start_on_the_first_miss_not_at_start(self):
        async def scenario():
            cache = ResultCache()
            key = replica_key(SPEC.config(), SPEC.profile(), 0)
            cache.put(key, execute_replica_job(_job()))
            async with JobManager(cache=cache) as manager:
                started = list(manager.backend.worker_pids)
                hit = await manager.submit_async(SPEC)
                await hit.result()
                after_hit = list(manager.backend.worker_pids)
                miss = await manager.submit_async(SPEC.with_overrides(seed=7))
                await miss.result()
                after_miss = list(manager.backend.worker_pids)
            return started, after_hit, after_miss, manager.backend.worker_pids

        started, after_hit, after_miss, closed = asyncio.run(scenario())
        assert started == after_hit == []
        assert len(after_miss) == 1
        assert closed == []
        assert not process_exists(after_miss[0])

    def test_aclose_reaps_every_worker(self):
        async def scenario():
            backend = WorkerPoolBackend(max_workers=2)
            async with JobManager(backend=backend) as manager:
                handle = await manager.submit_async(SPEC2)
                await manager.drain()
                await handle.result()
                pids = list(backend.worker_pids)
                assert all(process_exists(pid) for pid in pids)
            return backend, pids

        backend, pids = asyncio.run(scenario())
        assert len(pids) == 2  # both replicas computed side by side
        assert backend.worker_pids == []
        assert not any(process_exists(pid) for pid in pids)

    def test_server_thread_stop_reaps_its_workers(self):
        with (
            ServerThread(jobs=1) as server,
            ServiceClient(server.base_url) as client,
        ):
            client.run(SPEC)
            pids = server.call(lambda: list(server.manager.backend.worker_pids))
            assert len(pids) == 1 and process_exists(pids[0])
        assert not process_exists(pids[0])

    def test_crashed_worker_is_reaped_and_replaced(self):
        async def scenario():
            backend = WorkerPoolBackend(max_workers=1)
            first = await backend.run(_job())
            (killed,) = backend.worker_pids
            os.kill(killed, signal.SIGKILL)
            with pytest.raises(WorkerCrashError, match="replica 0"):
                await backend.run(_job())
            reaped = backend.worker_pids == [] and not process_exists(killed)
            second = await backend.run(_job())
            (fresh,) = backend.worker_pids
            await backend.aclose()
            return backend, first, second, killed, fresh, reaped

        backend, first, second, killed, fresh, reaped = asyncio.run(scenario())
        assert reaped
        assert fresh != killed
        assert not process_exists(fresh)
        assert first == second == execute_replica_job(_job())
        assert backend.pool_rebuilds == 1
        assert backend.submissions == 3

    def test_replica_timeout_kills_its_worker(self):
        slow = ExperimentSpec.make("oltp", scale=0.5)  # seconds of compute

        async def scenario():
            backend = WorkerPoolBackend(max_workers=1)
            manager = JobManager(backend=backend, replica_timeout=0.3, max_attempts=1)
            async with manager:
                handle = await manager.submit_async(slow)
                events = asyncio.ensure_future(_collect(handle))
                while not backend.worker_pids and not events.done():
                    await asyncio.sleep(0.001)
                (pid,) = backend.worker_pids
                stream = await events
                # Gone before the manager closes: the deadline killed it.
                gone = backend.worker_pids == [] and not process_exists(pid)
            return manager, stream, gone

        manager, stream, gone = asyncio.run(scenario())
        assert gone
        assert manager.metrics.replica_timeouts == 1
        assert isinstance(stream[-1], JobFailed)
        (failed,) = [e for e in stream if isinstance(e, ReplicaFailed)]
        assert not failed.permanent


class TestWorkerProtocol:
    def test_replica_error_keeps_its_type_and_the_worker(self):
        bad = _job(streams=[[]])  # 16 nodes, one stream

        async def scenario():
            backend = WorkerPoolBackend(max_workers=1)
            try:
                with pytest.raises(ValueError, match="expected 16 streams"):
                    await backend.run(bad)
                before = list(backend.worker_pids)
                result = await backend.run(_job())
                after = list(backend.worker_pids)
            finally:
                await backend.aclose()
            return backend, before, after, result

        backend, before, after, result = asyncio.run(scenario())
        assert before == after and len(after) == 1  # the worker survived
        assert result == execute_replica_job(_job())
        assert backend.pool_rebuilds == 0

    def test_unpicklable_error_arrives_as_permanent_replica_error(self, monkeypatch):
        class LocalError(Exception):
            """Defined in a function: pickle cannot find it by name."""

        def explode(_job):
            raise LocalError("model bug")

        monkeypatch.setattr(worker_module, "execute_replica_job", explode)
        frame = answer(pickle.dumps(_job()))
        (size,) = HEADER.unpack(frame[: HEADER.size])
        assert size == len(frame) - HEADER.size
        with pytest.raises(ReplicaError, match="LocalError") as info:
            reply_outcome(frame[HEADER.size :])
        assert not is_transient(info.value)

    def test_stray_stdout_writes_cannot_corrupt_the_framing(self):
        script = textwrap.dedent(
            """
            import os, sys
            from repro.parallel import worker

            real = worker.execute_replica_job

            def noisy(job):
                print("stray print")
                os.write(1, b"stray native write")
                return real(job)

            worker.execute_replica_job = noisy
            sys.exit(worker.main())
            """
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        with subprocess.Popen(
            [sys.executable, "-c", script],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as process:
            stdout, stderr = process.communicate(encode_frame(_job()), timeout=120)
        assert process.returncode == 0, stderr.decode()
        (size,) = HEADER.unpack(stdout[: HEADER.size])
        assert len(stdout) == HEADER.size + size
        assert reply_outcome(stdout[HEADER.size :]) == execute_replica_job(_job())
        assert b"stray print" in stderr and b"stray native write" in stderr
