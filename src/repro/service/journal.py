"""Crash-safe job journal: append-only, fsync'd, schema-versioned.

The journal is the service's durability layer for *jobs*: each job
submission, recovery and terminal transition (completed, cancelled,
failed) is appended as one self-checking record, flushed and fsync'd
before the manager moves on.  A service killed at *any* instant can be
restarted and resume its in-flight sweeps:
:meth:`repro.service.manager.JobManager.recover` resubmits every job the
journal holds as unfinished.  Replicas are not journalled: each one is a
pure function of (config, workload, replica index), so the
content-addressed :class:`~repro.service.cache.ResultCache` is the record
of which replicas finished, and recovery recomputes only those it lacks.

Wire format -- one record per line::

    <crc32:8 hex> <canonical JSON object>\\n

The CRC covers the JSON text, so a record is valid iff its line is whole
and its checksum matches.  A crash mid-append leaves a *torn tail*: a
final line with no newline, a truncated JSON body, or a mismatched CRC.
Opening the journal truncates the tail (every byte from the first invalid
record onward) instead of failing -- the dropped byte count is reported in
:attr:`JobJournal.torn_bytes_dropped` -- because a torn record is, by
construction, one the service never acknowledged.  The first record is a
schema-versioned header; a journal written by an incompatible schema
raises :class:`JournalError` rather than being silently misread.

The journal keeps no copy of its records: opening it folds them into the
unfinished jobs and the submission count, and each append updates both,
so its memory does not grow with its history.  Record types and fields it
does not read (the replica records and the ``n`` and ``keys`` fields of
older journals) are skipped.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Union

#: Version of the journal wire format (bump on incompatible change).
JOURNAL_SCHEMA_VERSION = 1

#: ``kind`` discriminator of the header record.
JOURNAL_KIND = "repro.service.journal"

#: Record types the journal writes.
RECORD_TYPES = frozenset(
    {
        "header",
        "job-submitted",
        "job-recovered",
        "job-completed",
        "job-cancelled",
        "job-failed",
    }
)

#: Record types that end a job's lifecycle.
TERMINAL_TYPES = frozenset({"job-completed", "job-cancelled", "job-failed"})


class JournalError(ValueError):
    """The journal cannot be used (schema mismatch, bad record type...)."""


# ------------------------------------------------------------ wire format
def encode_record(record: Dict[str, Any]) -> bytes:
    """One record as its checksummed line (canonical JSON + CRC32)."""
    body = json.dumps(record, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return f"{crc:08x} {body}\n".encode("utf-8")


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse and verify one journal line; raises :class:`JournalError`."""
    if not line.endswith(b"\n"):
        raise JournalError("torn record: line has no terminating newline")
    text = line[:-1].decode("utf-8", errors="replace")
    if len(text) < 10 or text[8] != " ":
        raise JournalError("torn record: missing checksum prefix")
    crc_text, body = text[:8], text[9:]
    try:
        expected = int(crc_text, 16)
    except ValueError:
        raise JournalError(f"torn record: bad checksum field {crc_text!r}") from None
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise JournalError(
            f"torn record: checksum {actual:08x} does not match {crc_text}"
        )
    try:
        record = json.loads(body)
    except json.JSONDecodeError as error:
        raise JournalError(f"torn record: invalid JSON body ({error})") from None
    if not isinstance(record, dict) or "type" not in record:
        raise JournalError("invalid record: not an object with a 'type'")
    return record


def _header_record() -> Dict[str, Any]:
    return {
        "type": "header",
        "kind": JOURNAL_KIND,
        "schema_version": JOURNAL_SCHEMA_VERSION,
    }


@dataclass
class JournaledJob:
    """One unfinished job: what :meth:`JobManager.recover` resubmits."""

    job_id: str
    priority: int
    spec: Dict[str, Any]
    #: Fair-scheduling client lane the job was submitted under.
    client: str = "default"


# ---------------------------------------------------------------- journal
class JobJournal:
    """The append-only journal file behind one (or several) service lives.

    Opening an existing journal validates its header, folds every whole
    record into the unfinished-job table and the submission count, and
    truncates the torn tail in place; appends then continue where the last
    acknowledged record left off.  Every append is fsync'd.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self.torn_bytes_dropped = 0
        self.torn_records_dropped = 0
        #: How many jobs were ever submitted (numbering continues after it).
        self.submitted = 0
        #: Jobs with no terminal record and no later recovery, in order.
        self._unfinished: Dict[str, JournaledJob] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        has_header = self._load_and_truncate()
        self._handle = open(self.path, "ab")
        if not has_header:
            self._append_raw(_header_record())

    # ----------------------------------------------------------- lifecycle
    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *_exc_info: Any) -> None:
        self.close()

    # -------------------------------------------------------------- append
    def append(self, record_type: str, **payload: Any) -> None:
        """Append one record durably.

        Raises :class:`JournalError` for unknown record types and
        :class:`OSError` when the disk does (the manager treats either as
        journal degradation, never as a job failure).
        """
        if record_type not in RECORD_TYPES:
            raise JournalError(f"unknown journal record type {record_type!r}")
        if self._handle is None:
            raise JournalError("journal is closed")
        record = {"type": record_type, **payload}
        self._append_raw(record)
        self._fold(record)

    def _append_raw(self, record: Dict[str, Any]) -> None:
        self._handle.write(encode_record(record))
        self._handle.flush()
        os.fsync(self._handle.fileno())

    # --------------------------------------------------------------- state
    def unfinished_jobs(self) -> List[JournaledJob]:
        """Jobs with no terminal record and no later recovery, in order."""
        return list(self._unfinished.values())

    def _fold(self, record: Dict[str, Any]) -> None:
        """Apply one record to the submission count and unfinished jobs."""
        kind = record["type"]
        if kind == "job-submitted":
            self.submitted += 1
            job_id = record.get("job")
            self._unfinished[job_id] = JournaledJob(
                job_id=job_id,
                priority=record.get("priority", 0),
                spec=record.get("spec", {}),
                client=record.get("client", "default"),
            )
        elif kind == "job-recovered":
            self._unfinished.pop(record.get("from"), None)
        elif kind in TERMINAL_TYPES:
            self._unfinished.pop(record.get("job"), None)

    # ------------------------------------------------------------ internals
    def _load_and_truncate(self) -> bool:
        """Fold the file's whole records in and cut its torn tail off;
        ``True`` when the file already starts with a valid header."""
        try:
            raw = self.path.read_bytes()
        except FileNotFoundError:
            return False
        offset = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                self.torn_records_dropped = 1
                break
            try:
                record = decode_line(raw[offset : newline + 1])
            except JournalError:
                # Invalid from here on: a torn tail, or corruption that
                # makes everything after it untrustworthy.  Truncate
                # conservatively.
                self.torn_records_dropped = 1 + raw.count(b"\n", newline + 1)
                break
            if offset == 0 and not _header_ok(record):
                raise JournalError(
                    f"journal {self.path} has an incompatible header: {record!r}"
                )
            self._fold(record)
            offset = newline + 1
        self.torn_bytes_dropped = len(raw) - offset
        if self.torn_bytes_dropped:
            with open(self.path, "r+b") as handle:
                handle.truncate(offset)
        return offset > 0


def _header_ok(record: Dict[str, Any]) -> bool:
    return (
        record.get("type") == "header"
        and record.get("kind") == JOURNAL_KIND
        and record.get("schema_version") == JOURNAL_SCHEMA_VERSION
    )
