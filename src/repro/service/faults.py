"""Deterministic fault injection for the service stack (test-only).

Every recovery path in :mod:`repro.service` -- retry-with-backoff, worker
pool rebuilds, journal torn-tail truncation, cache degradation -- is
exercised by *planned* faults rather than by hoping a real disk fills up.
A :class:`FaultPlan` is a fully deterministic schedule: each
:class:`Fault` names a **site** (a string identifying one instrumented
operation, e.g. ``backend.run``), the 1-based invocation number at which
it fires, and the fault **kind** to inject.  Whatever wraps a site calls
:meth:`FaultPlan.fire` exactly once per operation, so the same plan
always produces the same failure sequence -- tests assert recovery
behaviour and bit-identity against an unfaulted run.

No production module imports this one, and production code carries no
fault hooks: :class:`FaultingPoolBackend` wraps a pool backend from the
outside, and the tests wrap the result cache's shard ``open`` and the
journal handle's ``write`` the same way.

Plans can also be generated from a seed (:meth:`FaultPlan.seeded`), which
is how the hypothesis suite sweeps the fault space while staying
reproducible from the failing example alone.

:class:`FaultingPoolBackend` is a duck-typed pool backend (the manager
never isinstance-checks backends), so this module never imports the
manager.
"""

from __future__ import annotations

import asyncio
import errno
import random
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.parallel.executor import WorkerPoolError

# ------------------------------------------------------------------ sites
#: The manager's pool backend, once per replica attempt.
SITE_BACKEND_RUN = "backend.run"

#: The result cache's disk store, once per attempted shard write.
SITE_CACHE_DISK_PUT = "cache.disk_put"

#: The result cache's disk store, once per attempted shard read.
SITE_CACHE_DISK_GET = "cache.disk_get"

#: The job journal, once per appended record.
SITE_JOURNAL_APPEND = "journal.append"

FAULT_SITES = (
    SITE_BACKEND_RUN,
    SITE_CACHE_DISK_PUT,
    SITE_CACHE_DISK_GET,
    SITE_JOURNAL_APPEND,
)

# ------------------------------------------------------------------ kinds
#: A worker process died (raises a :class:`WorkerPoolError` subclass).
KIND_CRASH = "crash"

#: The operation never completes / exceeds its deadline.
KIND_TIMEOUT = "timeout"

#: The operating system refused the I/O (``detail`` names the errno).
KIND_IO_ERROR = "io-error"

#: The stored bytes decode to garbage (disk sites only).
KIND_CORRUPT = "corrupt"

#: The write stops halfway through the record (journal site only).
KIND_TORN_WRITE = "torn-write"

#: A permanent, non-retryable failure (a spec/model error stand-in).
KIND_PERMANENT = "permanent"

FAULT_KINDS = (
    KIND_CRASH,
    KIND_TIMEOUT,
    KIND_IO_ERROR,
    KIND_CORRUPT,
    KIND_TORN_WRITE,
    KIND_PERMANENT,
)


class InjectedWorkerCrash(WorkerPoolError):
    """A planned worker death; subclasses the real worker-death exception
    so the manager's crash-recovery path is exercised end to end."""


class InjectedPermanentError(ValueError):
    """A planned permanent failure (the retry policy must *not* retry it)."""


def injected_io_error(detail: str = "") -> OSError:
    """An :class:`OSError` for an ``io-error`` fault (``detail`` = errno name)."""
    name = detail or "ENOSPC"
    code = getattr(errno, name, errno.EIO)
    return OSError(code, f"injected {name}")


def fault_exception(fault: "Fault") -> BaseException:
    """The exception a raising site throws for ``fault``.

    ``corrupt`` and ``torn-write`` have no single exception -- the
    wrapped site mangles its own data instead -- so they are rejected
    here; wrappers that support them special-case those kinds first.
    """
    if fault.kind == KIND_CRASH:
        return InjectedWorkerCrash(
            f"injected worker crash (site {fault.site}, invocation {fault.at})"
        )
    if fault.kind == KIND_TIMEOUT:
        return asyncio.TimeoutError(
            f"injected timeout (site {fault.site}, invocation {fault.at})"
        )
    if fault.kind == KIND_IO_ERROR:
        return injected_io_error(fault.detail)
    if fault.kind == KIND_PERMANENT:
        return InjectedPermanentError(
            f"injected permanent failure (site {fault.site}, invocation {fault.at})"
        )
    raise ValueError(f"fault kind {fault.kind!r} has no exception form")


# ------------------------------------------------------------------- plan
@dataclass(frozen=True)
class Fault:
    """One planned fault: fire ``kind`` on the ``at``-th call at ``site``."""

    site: str
    at: int
    kind: str
    detail: str = ""

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; valid kinds: "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.at < 1:
            raise ValueError(f"fault invocation number must be >= 1, got {self.at}")


class FaultPlan:
    """A deterministic schedule of faults, keyed by ``(site, invocation)``.

    Instrumented components call :meth:`fire` once per operation; the plan
    advances that site's invocation counter and returns the fault due now
    (or ``None``).  Fired faults are logged in :attr:`fired` so tests can
    assert exactly which injections happened.
    """

    def __init__(self, faults: Sequence[Fault] = ()) -> None:
        self._schedule: Dict[Tuple[str, int], Fault] = {}
        for fault in faults:
            slot = (fault.site, fault.at)
            if slot in self._schedule:
                raise ValueError(
                    f"duplicate fault at site {fault.site!r} invocation {fault.at}"
                )
            self._schedule[slot] = fault
        self._counts: Dict[str, int] = {}
        self.fired: List[Fault] = []

    @classmethod
    def seeded(
        cls,
        seed: int,
        site_kinds: Mapping[str, Sequence[str]],
        *,
        invocations: int = 16,
        rate: float = 0.25,
    ) -> "FaultPlan":
        """A reproducible random plan.

        For each site in ``site_kinds`` (mapping site -> the kinds valid
        there) and each of the first ``invocations`` calls, a fault fires
        with probability ``rate``; the kind is drawn uniformly from the
        site's list.  The same seed always builds the same plan.
        """
        rng = random.Random(seed)
        faults: List[Fault] = []
        for site in sorted(site_kinds):
            kinds = list(site_kinds[site])
            for call in range(1, invocations + 1):
                if kinds and rng.random() < rate:
                    faults.append(Fault(site, call, rng.choice(kinds)))
        return cls(faults)

    def fire(self, site: str) -> Optional[Fault]:
        """Advance ``site``'s invocation counter; return the fault due now."""
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        fault = self._schedule.get((site, count))
        if fault is not None:
            self.fired.append(fault)
        return fault

    def invocations(self, site: str) -> int:
        """How many times ``site`` has been exercised so far."""
        return self._counts.get(site, 0)

    def pending(self) -> List[Fault]:
        """Scheduled faults that have not fired yet (site order, then at)."""
        return sorted(
            (f for f in self._schedule.values() if f not in self.fired),
            key=lambda f: (f.site, f.at),
        )


# ---------------------------------------------------------------- backend
class FaultingPoolBackend:
    """A pool backend that injects planned faults in front of ``inner``.

    Duck-types :class:`repro.service.manager.PoolBackend` (run / aclose /
    ``max_workers`` / ``submissions``) so this module never imports the
    manager.  Supported kinds at :data:`SITE_BACKEND_RUN`:

    * ``crash`` -- raises :class:`InjectedWorkerCrash` (a
      :class:`~repro.parallel.executor.WorkerPoolError` subclass, so the
      manager's worker-crash recovery path runs);
    * ``timeout`` -- raises :class:`asyncio.TimeoutError` immediately, or,
      with ``hang_on_timeout=True``, blocks forever so the manager's
      per-replica deadline (``asyncio.wait_for``) does the killing;
    * ``io-error`` -- raises the planned :class:`OSError`;
    * ``permanent`` -- raises :class:`InjectedPermanentError` (must not be
      retried).

    ``submissions`` counts only attempts that reached the inner backend,
    so cached-replay accounting stays exact under injected faults.
    """

    def __init__(
        self,
        inner,
        plan: FaultPlan,
        *,
        hang_on_timeout: bool = False,
    ) -> None:
        self.inner = inner
        self.plan = plan
        self.hang_on_timeout = hang_on_timeout
        self.max_workers = inner.max_workers

    @property
    def submissions(self) -> int:
        return self.inner.submissions

    async def run(self, job):
        fault = self.plan.fire(SITE_BACKEND_RUN)
        if fault is not None:
            if fault.kind == KIND_TIMEOUT and self.hang_on_timeout:
                await asyncio.Event().wait()  # cancelled by wait_for
            raise fault_exception(fault)
        return await self.inner.run(job)

    async def aclose(self) -> None:
        await self.inner.aclose()
