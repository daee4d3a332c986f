"""Tests for the machine-readable perf harness and the compare gate."""

import json

import pytest

from repro.perf.compare import (
    compare_reports,
    load_report,
    main as compare_main,
    render_markdown,
)
from repro.perf.harness import (
    KERNEL_FILE,
    SCALE_FILE,
    main as harness_main,
    run_suite,
)
from repro.perf.profile import SCENARIOS, format_rows, profile_scenario
from repro.perf.schema import (
    SCHEMA_VERSION,
    SchemaError,
    make_report,
    make_scenario,
    validate_report,
)


def _report(runtimes, calibration_s=0.1, names=None):
    scenarios = [
        make_scenario(name=names[i] if names else f"s{i}",
                      runtime_s=runtime, peak_rss_kb=1000, events=1000)
        for i, runtime in enumerate(runtimes)
    ]
    return make_report("test", scenarios, calibration_s)


class TestSchema:
    def test_make_report_is_valid(self):
        validate_report(_report([1.0, 2.0]))

    def test_events_per_sec_derived(self):
        scenario = make_scenario("x", runtime_s=2.0, peak_rss_kb=1, events=500)
        assert scenario["events_per_sec"] == pytest.approx(250.0)

    def test_missing_field_rejected(self):
        report = _report([1.0])
        del report["scenarios"][0]["runtime_s"]
        with pytest.raises(SchemaError):
            validate_report(report)

    def test_wrong_version_rejected(self):
        report = _report([1.0])
        report["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError):
            validate_report(report)

    def test_empty_scenarios_rejected(self):
        report = _report([1.0])
        report["scenarios"] = []
        with pytest.raises(SchemaError):
            validate_report(report)


class TestCompare:
    def test_no_regression(self):
        rows = compare_reports(_report([1.0]), _report([1.1]))
        assert len(rows) == 1
        assert not rows[0]["regressed"]

    def test_regression_detected(self):
        rows = compare_reports(_report([1.0]), _report([1.4]), threshold=0.25)
        assert rows[0]["regressed"]

    def test_improvement_ok(self):
        rows = compare_reports(_report([1.0]), _report([0.4]))
        assert not rows[0]["regressed"]

    def test_calibration_normalises_host_speed(self):
        # New host is 2x slower (calibration 0.2 vs 0.1): a 1.8s runtime is
        # really a 0.9s runtime on the baseline host -- an improvement.
        baseline = _report([1.0], calibration_s=0.1)
        slower_host = _report([1.8], calibration_s=0.2)
        rows = compare_reports(baseline, slower_host, threshold=0.25)
        assert not rows[0]["regressed"]
        assert rows[0]["new_s"] == pytest.approx(0.9)
        # Without calibration the same numbers read as a big regression.
        raw = compare_reports(baseline, slower_host, threshold=0.25,
                              use_calibration=False)
        assert raw[0]["regressed"]

    def test_tiny_baselines_never_gate(self):
        rows = compare_reports(_report([0.01]), _report([0.05]),
                               min_runtime_s=0.05)
        assert not rows[0]["regressed"]
        assert not rows[0]["gated"]

    def test_unmatched_scenarios_skipped(self):
        baseline = _report([1.0], names=["a"])
        new = _report([1.0], names=["b"])
        assert compare_reports(baseline, new) == []

    def test_cli_exit_codes(self, tmp_path):
        ok = tmp_path / "ok.json"
        slow = tmp_path / "slow.json"
        garbage = tmp_path / "garbage.json"
        ok.write_text(json.dumps(_report([1.0])))
        slow.write_text(json.dumps(_report([2.0])))
        garbage.write_text("{not json")
        assert compare_main([str(ok), str(ok)]) == 0
        assert compare_main([str(ok), str(slow), "--no-calibration"]) == 1
        assert compare_main([str(ok), str(garbage)]) == 2

    def test_load_report_rejects_missing_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_report(tmp_path / "nope.json")

    def test_events_per_sec_rides_along(self):
        rows = compare_reports(_report([1.0]), _report([0.5]))
        assert rows[0]["baseline_eps"] == pytest.approx(1000.0)
        assert rows[0]["new_eps"] == pytest.approx(2000.0)

    def test_render_markdown_table(self):
        rows = compare_reports(_report([1.0]), _report([0.5]))
        table = render_markdown(rows, threshold=0.25, title="trend")
        lines = table.splitlines()
        assert lines[0] == "**trend**"
        assert lines[2].startswith("| scenario |")
        assert "🟢 faster" in table
        assert "2,000" in table          # normalised events/sec column

    def test_markdown_cli_and_exit_zero(self, tmp_path, capsys):
        ok = tmp_path / "ok.json"
        slow = tmp_path / "slow.json"
        ok.write_text(json.dumps(_report([1.0])))
        slow.write_text(json.dumps(_report([2.0])))
        assert compare_main([str(ok), str(slow), "--no-calibration",
                             "--markdown", "--exit-zero"]) == 0
        out = capsys.readouterr().out
        assert "| scenario |" in out and "regressed" in out
        # markdown without --exit-zero still gates
        assert compare_main([str(ok), str(slow), "--no-calibration",
                             "--markdown"]) == 1


class TestHarness:
    def test_kernel_suite_emits_valid_artifact(self, tmp_path):
        written = run_suite("kernel", tmp_path, scale=0.05)
        assert set(written) == {KERNEL_FILE}
        report = load_report(written[KERNEL_FILE])
        assert report["suite"] == "kernel"
        assert report["calibration_s"] > 0
        scenario = report["scenarios"][0]
        assert scenario["name"] == "kernel_microbench"
        assert scenario["events_per_sec"] > 0
        assert scenario["peak_rss_kb"] > 0
        assert scenario["metrics"]["chains"] > 0

    def test_cli_round_trip_with_compare(self, tmp_path):
        assert harness_main(["--suite", "kernel", "--scale", "0.05",
                             "--output-dir", str(tmp_path)]) == 0
        artifact = tmp_path / KERNEL_FILE
        assert compare_main([str(artifact), str(artifact)]) == 0

    def test_unknown_suite_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            run_suite("nope", tmp_path)

    def test_scale_suite_emits_valid_artifact(self, tmp_path):
        written = run_suite("scale", tmp_path, scale=0.02)
        assert set(written) == {SCALE_FILE}
        report = load_report(written[SCALE_FILE])
        assert report["suite"] == "scale"
        names = [scenario["name"] for scenario in report["scenarios"]]
        assert names == [
            "scale_snooping", "scale_snooping_256", "scale_directory",
            "scale_mesi_directory",
        ]
        for scenario in report["scenarios"]:
            metrics = scenario["metrics"]
            assert scenario["events"] > 0
            assert metrics["num_nodes"] in (64, 256)


class TestProfile:
    def test_scenario_registry_covers_all_suites(self):
        assert {"kernel_microbench", "figure3_runtime", "figure4_traffic",
                "parallel_sweep", "scale_snooping", "scale_snooping_256",
                "scale_directory",
                "scale_mesi_directory"} <= set(SCENARIOS)

    def test_profile_reports_hotspots(self):
        rows = profile_scenario("kernel_microbench", scale=0.02, top=5,
                                sort="tottime")
        assert 0 < len(rows) <= 5
        assert rows[0]["tottime"] >= rows[-1]["tottime"]
        for row in rows:
            assert {"function", "file", "line", "ncalls",
                    "tottime", "cumtime"} <= set(row)
        text = format_rows(rows)
        assert "function" in text and rows[0]["function"] in text

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            profile_scenario("nope")
        with pytest.raises(ValueError):
            profile_scenario("kernel_microbench", sort="callees")
