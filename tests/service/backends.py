"""Pool-backend test support: an in-process double and worker-process probes.

The service computes replicas in worker subprocesses
(:class:`repro.service.manager.WorkerPoolBackend`).  Tests that gate,
record or fail individual runs, or that assert an exact event order
across concurrent jobs, use :class:`InlinePoolBackend` instead: it runs
each replica on the event-loop thread between two scheduling points.
The ``/proc`` probes below find this process's worker children (Linux).
"""

from __future__ import annotations

import asyncio
import os
from pathlib import Path
from typing import List

from repro.parallel.jobs import ReplicaJob, execute_replica_job
from repro.service.manager import PoolBackend
from repro.system.results import RunResult


class InlinePoolBackend(PoolBackend):
    """Runs replicas synchronously on the event-loop thread (one worker)."""

    def __init__(self) -> None:
        self.submissions = 0

    async def run(self, job: ReplicaJob) -> RunResult:
        self.submissions += 1
        # One cooperative yield so cancellations and joiners queued before
        # this replica get to run first, mirroring a real pool handoff.
        await asyncio.sleep(0)
        return execute_replica_job(job)


WORKER_MODULE = b"repro.parallel.worker"


def child_pids() -> List[int]:
    """Pids of this process's live children, zombies included (Linux)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        # The command name may hold spaces: fields resume after its ')'.
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == os.getpid():
            children.append(int(entry))
    return children


def worker_children() -> List[int]:
    """The children that are replica workers or were never reaped."""
    leaked = []
    for pid in child_pids():
        try:
            cmdline = Path("/proc", str(pid), "cmdline").read_bytes()
        except OSError:
            continue
        # A zombie (exited, never reaped) has an empty command line.
        if WORKER_MODULE in cmdline or not cmdline:
            leaked.append(pid)
    return leaked


def process_exists(pid: int) -> bool:
    """Whether ``pid`` is still in ``/proc`` (a zombie counts: unreaped)."""
    return Path("/proc", str(pid)).exists()
