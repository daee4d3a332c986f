"""Journal test support: read a journal file's records back by type, and
write a journal in an older record format.

:class:`repro.service.journal.JobJournal` keeps no copy of what it wrote,
so tests that count lifecycle records read them from the file itself.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Union

from repro.service.journal import (
    JOURNAL_KIND,
    JOURNAL_SCHEMA_VERSION,
    decode_line,
    encode_record,
)


def journal_records(path: Union[str, Path], record_type: str) -> List[Dict[str, Any]]:
    """The records of ``record_type`` in the journal at ``path``, in order."""
    with open(path, "rb") as handle:
        records = [decode_line(line) for line in handle]
    return [record for record in records if record["type"] == record_type]


def journal_count(path: Union[str, Path], record_type: str) -> int:
    """How many records of ``record_type`` the journal at ``path`` holds."""
    return len(journal_records(path, record_type))


def write_parent_format_journal(
    path: Union[str, Path], spec: Dict[str, Any], keys: List[str]
) -> None:
    """A journal in the format written before replica records were dropped.

    Every record but the header carries a sequence number ``n``,
    ``job-submitted`` lists the job's replica ``keys``, and replica records
    sit between the job records.  ``job-1`` finished; ``job-2`` (priority
    3, client ``alice``) settled every replica but died before its
    terminal record.
    """
    error = "WorkerCrashError('worker exited')"

    def submitted(job: str, priority: int, client: str) -> Dict[str, Any]:
        return {
            "type": "job-submitted",
            "job": job,
            "priority": priority,
            "client": client,
            "spec": spec,
            "keys": keys,
        }

    def completed(job: str, index: int) -> Dict[str, Any]:
        return {
            "type": "replica-completed",
            "job": job,
            "replica": index,
            "key": keys[index],
            "source": "computed",
        }

    retried = {"type": "replica-retried", "job": "job-2", "replica": 0, "attempt": 1}
    failed = {"type": "replica-failed", "job": "job-2", "attempts": 2, "error": error}
    records = [
        submitted("job-1", 0, "default"),
        *(completed("job-1", index) for index in range(len(keys))),
        {"type": "job-completed", "job": "job-1"},
        submitted("job-2", 3, "alice"),
        {**retried, "error": error},
        completed("job-2", 0),
        *({**failed, "replica": index} for index in range(1, len(keys))),
    ]
    header = {
        "type": "header",
        "kind": JOURNAL_KIND,
        "schema_version": JOURNAL_SCHEMA_VERSION,
    }
    lines = [encode_record(header)]
    lines += [
        encode_record({"n": number, **record})
        for number, record in enumerate(records, start=1)
    ]
    Path(path).write_bytes(b"".join(lines))
