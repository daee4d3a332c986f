"""Tests for the ``python -m repro.service`` command-line front-end."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.api.spec import ExperimentSpec, ExperimentSpecError
from repro.service.cache import ResultCache, replica_key
from repro.service.cli import _make_manager, build_parser, main, parse_request
from repro.service.journal import JobJournal
from repro.service.metrics import validate_metrics_snapshot
from tests.service.journal_files import journal_count


class TestParseRequest:
    def test_bare_workload(self):
        spec, priority = parse_request("oltp")
        assert spec.workload == "oltp"
        assert spec.protocol == "ts-snoop"
        assert priority == 0

    def test_full_grammar(self):
        spec, priority = parse_request(
            "dss,protocol=dir-opt,network=torus,scale=0.2,priority=3,slack=2"
        )
        assert spec.workload == "dss"
        assert spec.protocol == "diropt"
        assert spec.network == "torus"
        assert spec.scale == 0.2
        assert spec.overrides_dict() == {"slack": 2}
        assert priority == 3

    def test_default_scale_fills_in_when_not_inline(self):
        spec, _ = parse_request("oltp", default_scale=0.1)
        assert spec.scale == 0.1

    def test_inline_scale_wins_over_default(self):
        spec, _ = parse_request("oltp,scale=0.2", default_scale=0.1)
        assert spec.scale == 0.2

    def test_value_coercion(self):
        spec, _ = parse_request(
            "oltp,scale=0.1,enable_checker=true,perturbation_replicas=2"
        )
        assert spec.overrides_dict() == {
            "enable_checker": True,
            "perturbation_replicas": 2,
        }

    def test_workload_keyword_form(self):
        spec, _ = parse_request("workload=tpc-c,scale=0.1")
        assert spec.workload == "oltp"

    def test_missing_workload_rejected(self):
        with pytest.raises(ExperimentSpecError, match="does not name"):
            parse_request("protocol=diropt")

    def test_two_workloads_rejected(self):
        with pytest.raises(ExperimentSpecError, match="two workloads"):
            parse_request("oltp,dss")

    def test_unknown_override_propagates_choices(self):
        with pytest.raises(ExperimentSpecError, match="valid names"):
            parse_request("oltp,cache_megabytes=4")


class TestServeMode:
    def test_serve_runs_and_writes_metrics(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            [
                "oltp,scale=0.05",
                "oltp,scale=0.05,protocol=diropt",
                "--quiet",
                "--metrics-out",
                str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "job-1 oltp/ts-snoop/butterfly@0.05:" in out
        assert "job-2 oltp/diropt/butterfly@0.05:" in out
        snapshot = json.loads(metrics_path.read_text())
        validate_metrics_snapshot(snapshot)
        assert snapshot["replicas"]["replicas_computed"] == 2

    def test_serve_streams_events(self, capsys):
        assert main(["oltp,scale=0.05"]) == 0
        out = capsys.readouterr().out
        assert "admitted oltp/ts-snoop/butterfly@0.05" in out
        assert "replica 0 computed" in out
        assert "completed runtime=" in out

    def test_duplicate_requests_dedup_through_the_cache(self, capsys):
        assert main(["oltp,scale=0.05", "oltp,scale=0.05", "--quiet"]) == 0
        out = capsys.readouterr().out
        assert "computed=1 cached=1" in out

    def test_admission_rejection_reports_and_fails(self, capsys):
        code = main(
            [
                "oltp,scale=0.05",
                "oltp,scale=0.05,protocol=diropt",
                "--budget",
                "1",
                "--quiet",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "rejected oltp/diropt/butterfly@0.05" in out
        assert "retry after" in out

    @pytest.mark.parametrize(
        "request_text, message",
        [
            ("oltp,protocol=dragon", "valid choices"),
            ("oltp,jobs=4", "unknown SystemConfig override 'jobs'"),
        ],
    )
    def test_bad_request_is_a_usage_error(self, request_text, message, capsys):
        with pytest.raises(SystemExit) as info:
            main([request_text])
        assert info.value.code == 2
        assert message in capsys.readouterr().err

    def test_no_requests_is_a_usage_error(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--jobs", "-1"], "jobs must be non-negative"),
            (["--memory-entries", "-5"], "memory_entries must be non-negative"),
            (["--client-weight", "a=0"], "client weight must be a positive"),
            (["--cache-budget", "0"], "disk_budget_bytes must be positive"),
            (["--cache-budget", "100"], "disk_budget_bytes needs a path"),
        ],
    )
    def test_rejected_flag_value_is_a_usage_error(self, flags, message, capsys):
        with pytest.raises(SystemExit) as info:
            main(["oltp,scale=0.05", *flags])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert f"error: {message}" in err

    def test_persistent_cache_dir(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(["oltp,scale=0.05", "--quiet", "--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["oltp,scale=0.05", "--quiet", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "computed=0 cached=1" in out


class TestFaultToleranceFlags:
    def test_retry_flags_are_plumbed_into_the_manager(self, tmp_path):
        args = build_parser().parse_args(
            [
                "oltp",
                "--max-attempts",
                "5",
                "--replica-timeout",
                "2.5",
                "--journal-dir",
                str(tmp_path / "journal"),
            ]
        )
        manager = _make_manager(args)
        try:
            assert manager.max_attempts == 5
            assert manager.replica_timeout == 2.5
            assert manager.journal is not None
            assert (tmp_path / "journal" / "journal.jsonl").is_file()
        finally:
            manager.journal.close()
            asyncio.run(manager.backend.aclose())

    def test_journal_flag_records_the_run(self, tmp_path, capsys):
        journal_dir = str(tmp_path / "journal")
        assert main(["oltp,scale=0.05", "--quiet", "--journal-dir", journal_dir]) == 0
        capsys.readouterr()
        journal_path = tmp_path / "journal" / "journal.jsonl"
        assert journal_count(journal_path, "job-submitted") == 1
        assert journal_count(journal_path, "job-completed") == 1
        # The header and the job's two records: nothing per replica.
        assert len(journal_path.read_bytes().splitlines()) == 3
        with JobJournal(journal_path) as journal:
            assert journal.unfinished_jobs() == []

    def test_serve_recovers_unfinished_jobs_from_the_journal(self, tmp_path, capsys):
        # A previous service life died mid-sweep: the 2-replica job is
        # journalled, replica 0 is cached, the rest is missing.
        spec = ExperimentSpec.make("oltp", scale=0.05, perturbation_replicas=2)
        config, profile = spec.config(), spec.profile()
        from repro.parallel.jobs import ReplicaJob, execute_replica_job

        cache_dir = tmp_path / "cache"
        ResultCache(cache_dir).put(
            replica_key(config, profile, 0),
            execute_replica_job(
                ReplicaJob(config=config, profile=profile, replica_index=0)
            ),
        )
        journal_dir = tmp_path / "journal"
        journal_dir.mkdir()
        with JobJournal(journal_dir / "journal.jsonl") as journal:
            journal.append(
                "job-submitted", job="job-1", priority=0, spec=spec.as_document()
            )

        code = main(
            [
                "oltp,scale=0.05,protocol=diropt",
                "--quiet",
                "--journal-dir",
                str(journal_dir),
                "--cache-dir",
                str(cache_dir),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "recovered job-2" in out
        assert "job-2 oltp/ts-snoop/butterfly@0.05:" in out
        assert "job-3 oltp/diropt/butterfly@0.05:" in out
        # Only the missing replica was recomputed; replica 0 replayed.
        assert "computed=2 cached=1" in out
        with JobJournal(journal_dir / "journal.jsonl") as journal:
            assert journal.unfinished_jobs() == []
        assert journal_count(journal_dir / "journal.jsonl", "job-recovered") == 1
