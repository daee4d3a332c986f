"""Disk and journal fault injection: wrap the real I/O call at each site.

:class:`repro.service.cache.ResultCache` and
:class:`repro.service.journal.JobJournal` have no fault hooks.  These
helpers put a :class:`~repro.service.faults.FaultPlan` in front of the
call each one makes to the operating system, firing one site per call:

* the cache's shard ``open`` -- a read fires ``cache.disk_get``, a write
  fires ``cache.disk_put``;
* the journal handle's ``write`` -- one call per appended record fires
  ``journal.append``; a ``torn-write`` fault writes half the bytes, then
  raises, as a process dying mid-write would.

A fault of any other kind raises the exception
:func:`~repro.service.faults.fault_exception` gives it.
"""

from __future__ import annotations

import builtins

from repro.service import cache as cache_module
from repro.service.faults import (
    KIND_TORN_WRITE,
    SITE_CACHE_DISK_GET,
    SITE_CACHE_DISK_PUT,
    SITE_JOURNAL_APPEND,
    FaultPlan,
    fault_exception,
)
from repro.service.journal import JobJournal


def inject_cache_faults(monkeypatch, plan: FaultPlan) -> None:
    """Route every shard ``open`` of :mod:`repro.service.cache` through
    ``plan`` until the test ends."""

    def faulting_open(file, mode="r", *args, **kwargs):
        fault = plan.fire(SITE_CACHE_DISK_GET if "r" in mode else SITE_CACHE_DISK_PUT)
        if fault is not None:
            raise fault_exception(fault)
        return builtins.open(file, mode, *args, **kwargs)

    monkeypatch.setattr(cache_module, "open", faulting_open, raising=False)


class _FaultingHandle:
    """A journal file handle whose ``write`` consults the plan first."""

    def __init__(self, inner, plan: FaultPlan) -> None:
        self._inner = inner
        self._plan = plan

    def write(self, data: bytes) -> int:
        fault = self._plan.fire(SITE_JOURNAL_APPEND)
        if fault is None:
            return self._inner.write(data)
        if fault.kind == KIND_TORN_WRITE:
            self._inner.write(data[: max(1, len(data) // 2)])
            self._inner.flush()
            raise OSError(f"injected torn write at invocation {fault.at}: process died")
        raise fault_exception(fault)

    def __getattr__(self, name):
        return getattr(self._inner, name)


def inject_journal_faults(journal: JobJournal, plan: FaultPlan) -> JobJournal:
    """Route ``journal``'s record writes through ``plan``; returns it.

    The header of a new journal is already written, so invocation 1 is
    the first :meth:`JobJournal.append`.
    """
    journal._handle = _FaultingHandle(journal._handle, plan)
    return journal
