"""Tests for the crash-safe job journal.

The headline properties: every whole record survives a reopen; a torn
tail -- a half-written line, a checksum mismatch, a truncated JSON body --
is truncated in place instead of poisoning the journal; folding the
records yields exactly the unfinished jobs and the submission count, also
for a journal written in the older format with replica records; the
journal's memory does not grow with the jobs it has finished; and an
incompatible schema is refused loudly rather than misread.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.api.spec import ExperimentSpec
from repro.service.faults import SITE_JOURNAL_APPEND, Fault, FaultPlan
from repro.service.journal import (
    JOURNAL_SCHEMA_VERSION,
    JobJournal,
    JournaledJob,
    JournalError,
    decode_line,
    encode_record,
)
from tests.service.io_faults import inject_journal_faults
from tests.service.journal_files import (
    journal_count,
    journal_records,
    write_parent_format_journal,
)


def _submit(journal, job="job-1"):
    journal.append("job-submitted", job=job, priority=0, spec={"workload": "oltp"})


def _unfinished_ids(journal):
    return [entry.job_id for entry in journal.unfinished_jobs()]


class TestWireFormat:
    def test_encode_decode_round_trip(self):
        record = {"type": "job-submitted", "job": "job-1", "priority": 0}
        assert decode_line(encode_record(record)) == record

    def test_missing_newline_is_torn(self):
        line = encode_record({"type": "header"})[:-1]
        with pytest.raises(JournalError, match="newline"):
            decode_line(line)

    def test_checksum_mismatch_is_torn(self):
        line = bytearray(encode_record({"type": "header"}))
        line[0] = ord("f") if line[0] != ord("f") else ord("0")
        with pytest.raises(JournalError, match="checksum"):
            decode_line(bytes(line))

    def test_truncated_body_is_torn(self):
        line = encode_record({"type": "header", "padding": "x" * 40})
        with pytest.raises(JournalError):
            decode_line(line[:20] + b"\n")

    def test_non_object_body_rejected(self):
        import json
        import zlib

        body = json.dumps([1, 2, 3], separators=(",", ":"))
        crc = zlib.crc32(body.encode()) & 0xFFFFFFFF
        with pytest.raises(JournalError, match="object"):
            decode_line(f"{crc:08x} {body}\n".encode())


class TestJournalLifecycle:
    def test_records_survive_close_and_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal, job="job-1")
            _submit(journal, job="job-2")
            journal.append("job-completed", job="job-1")
        with JobJournal(path) as reopened:
            assert reopened.torn_bytes_dropped == 0
            assert reopened.submitted == 2
            assert _unfinished_ids(reopened) == ["job-2"]
        (header,) = journal_records(path, "header")
        assert header["schema_version"] == JOURNAL_SCHEMA_VERSION
        assert journal_count(path, "job-submitted") == 2

    def test_submission_count_continues_across_lives(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal, job="job-1")
        with JobJournal(path) as reopened:
            assert reopened.submitted == 1
            _submit(reopened, job="job-2")
            assert reopened.submitted == 2
        with JobJournal(path) as final:
            assert final.submitted == 2
            assert _unfinished_ids(final) == ["job-1", "job-2"]
        assert len(journal_records(path, "header")) == 1

    def test_unknown_record_type_rejected(self, tmp_path):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            with pytest.raises(JournalError, match="unknown journal record type"):
                journal.append("job-exploded", job="job-1")

    def test_append_after_close_rejected(self, tmp_path):
        journal = JobJournal(tmp_path / "journal.jsonl")
        journal.close()
        with pytest.raises(JournalError, match="closed"):
            journal.append("job-cancelled", job="job-1")

    def test_incompatible_header_refused(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        record = {
            "type": "header",
            "kind": "repro.service.journal",
            "schema_version": JOURNAL_SCHEMA_VERSION + 1,
        }
        path.write_bytes(encode_record(record))
        with pytest.raises(JournalError, match="incompatible header"):
            JobJournal(path)

    def test_parent_directory_is_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal)
        assert path.is_file()


class TestTornTail:
    def test_half_line_without_newline_is_truncated(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal)
        clean_size = path.stat().st_size
        with open(path, "ab") as handle:
            handle.write(b'deadbeef {"type":"replica-comp')
        with JobJournal(path) as reopened:
            assert reopened.torn_bytes_dropped > 0
            assert reopened.torn_records_dropped == 1
            assert reopened.submitted == 1
        # Truncated in place: the file is back to its acknowledged prefix.
        assert path.stat().st_size == clean_size

    def test_bad_checksum_line_and_everything_after_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal)
        good_tail = encode_record({"type": "job-cancelled", "job": "job-1"})
        with open(path, "ab") as handle:
            handle.write(b'00000000 {"type":"job-completed","job":"job-1"}\n')
            handle.write(good_tail)
        with JobJournal(path) as reopened:
            # Conservative truncation: records after the corrupt line are
            # untrustworthy too, even if individually valid.
            assert reopened.torn_records_dropped == 2
            assert _unfinished_ids(reopened) == ["job-1"]
        assert journal_count(path, "job-completed") == 0
        assert journal_count(path, "job-cancelled") == 0

    def test_reopen_after_truncation_appends_cleanly(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with JobJournal(path) as journal:
            _submit(journal)
        with open(path, "ab") as handle:
            handle.write(b"garbage")
        with JobJournal(path) as reopened:
            reopened.append("job-completed", job="job-1")
        with JobJournal(path) as final:
            assert final.torn_bytes_dropped == 0
            assert final.unfinished_jobs() == []
        assert journal_count(path, "job-completed") == 1

    def test_injected_torn_write_is_truncated_on_reopen(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        plan = FaultPlan([Fault(SITE_JOURNAL_APPEND, 2, "torn-write")])
        with inject_journal_faults(JobJournal(path), plan) as journal:
            _submit(journal)  # invocation 1: fine
            with pytest.raises(OSError, match="torn write"):
                journal.append("job-completed", job="job-1")
            # The unacknowledged record changed nothing.
            assert _unfinished_ids(journal) == ["job-1"]
        with JobJournal(path) as reopened:
            assert reopened.torn_bytes_dropped > 0
            assert reopened.submitted == 1
            assert _unfinished_ids(reopened) == ["job-1"]
        assert journal_count(path, "job-completed") == 0


class TestReplay:
    def test_terminal_jobs_are_finished(self, tmp_path):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            for job in ("job-1", "job-2", "job-3", "job-4"):
                _submit(journal, job=job)
            journal.append("job-completed", job="job-1")
            journal.append("job-cancelled", job="job-2")
            journal.append("job-failed", job="job-3", error="boom")
            assert _unfinished_ids(journal) == ["job-4"]
            assert journal.submitted == 4

    def test_recovered_jobs_are_not_recovered_twice(self, tmp_path):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            _submit(journal, job="job-1")
            _submit(journal, job="job-2")
            journal.append("job-recovered", job="job-2", **{"from": "job-1"})
            # job-1 was resubmitted as job-2; only job-2 is still live.
            assert _unfinished_ids(journal) == ["job-2"]

    def test_terminal_records_for_unknown_jobs_are_ignored(self, tmp_path):
        with JobJournal(tmp_path / "journal.jsonl") as journal:
            _submit(journal, job="job-1")
            journal.append("job-completed", job="ghost")
            journal.append("job-recovered", job="job-2", **{"from": "ghost"})
            assert _unfinished_ids(journal) == ["job-1"]

    def test_parent_format_journal_is_read(self, tmp_path):
        # A journal written before replica records were dropped: its
        # replica records and its ``n`` and ``keys`` fields are skipped.
        path = tmp_path / "journal.jsonl"
        spec = {"workload": "oltp"}
        write_parent_format_journal(path, spec, ["key-0", "key-1"])
        with JobJournal(path) as journal:
            assert journal.torn_bytes_dropped == 0
            assert journal.submitted == 2
            assert journal.unfinished_jobs() == [
                JournaledJob(job_id="job-2", priority=3, spec=spec, client="alice")
            ]
            journal.append("job-completed", job="job-2")
        with JobJournal(path) as reopened:
            assert reopened.submitted == 2
            assert reopened.unfinished_jobs() == []


class TestBoundedMemory:
    def test_memory_does_not_grow_with_finished_jobs(self, tmp_path):
        # Every append is fsync'd, so the bound is checked over thousands
        # of jobs, not millions.  Growth is measured from 2,000 to 4,000
        # finished jobs, after any one-off allocation has happened.
        spec = ExperimentSpec.make("oltp", scale=0.05).as_document()

        def finish(journal, numbers):
            for number in numbers:
                journal.append(
                    "job-submitted", job=f"job-{number}", priority=0, spec=spec
                )
                journal.append("job-completed", job=f"job-{number}")

        with JobJournal(tmp_path / "journal.jsonl") as journal:
            finish(journal, range(1, 2001))
            tracemalloc.start()
            try:
                before, _peak = tracemalloc.get_traced_memory()
                finish(journal, range(2001, 4001))
                after, _peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # A journal that kept its records would grow by about 2 MiB here.
            assert after - before < 64 * 1024
            assert journal.unfinished_jobs() == []
            assert journal.submitted == 4000
