"""CLI-level tests for the perf tooling entry points.

``repro.perf.profile`` and ``repro.perf.compare --markdown`` are what CI
and humans actually invoke; these tests drive their ``main()`` functions
end to end (argument parsing, stdout rendering, artifact files) with
``capsys`` and tmp-path golden checks.
"""

import json

import pytest

from repro.perf.compare import main as compare_main
from repro.perf.harness import main as harness_main
from repro.perf.profile import main as profile_main
from repro.perf.schema import make_report, make_scenario


def _report_file(tmp_path, name, runtimes, calibration_s=0.1, events=1000):
    scenarios = [
        make_scenario(
            name=f"s{i}", runtime_s=runtime, peak_rss_kb=1000, events=events
        )
        for i, runtime in enumerate(runtimes)
    ]
    path = tmp_path / name
    path.write_text(json.dumps(make_report("test", scenarios, calibration_s)))
    return path


class TestProfileCli:
    def test_prints_hotspot_table(self, capsys):
        args = ["--scenario", "kernel_microbench", "--scale", "0.01"]
        exit_code = profile_main(args + ["--top", "4", "--sort", "tottime"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "[profile] kernel_microbench: top 4 by tottime" in out
        table_lines = [
            line
            for line in out.splitlines()
            if line and not line.startswith("[profile]")
        ]
        header, *rows = table_lines
        assert header.split() == ["ncalls", "tottime", "cumtime", "function"]
        assert 0 < len(rows) <= 4
        # every row ends with a file:line(function) locator
        assert all("(" in row and ":" in row for row in rows)

    def test_json_artifact_round_trips(self, tmp_path, capsys):
        artifact = tmp_path / "hotspots.json"
        args = ["--scenario", "kernel_microbench", "--scale", "0.01"]
        exit_code = profile_main(args + ["--top", "3", "--json", str(artifact)])
        assert exit_code == 0
        assert f"[profile] wrote {artifact}" in capsys.readouterr().out
        payload = json.loads(artifact.read_text())
        assert payload["scenario"] == "kernel_microbench"
        assert payload["sort"] == "cumulative"
        assert 0 < len(payload["rows"]) <= 3
        for row in payload["rows"]:
            assert {"function", "file", "line", "ncalls", "primitive_calls",
                    "tottime", "cumtime"} <= set(row)
        # rows are ranked by the requested sort key
        cumtimes = [row["cumtime"] for row in payload["rows"]]
        assert cumtimes == sorted(cumtimes, reverse=True)

    def test_unknown_scenario_rejected_by_argparse(self, capsys):
        with pytest.raises(SystemExit):
            profile_main(["--scenario", "nope"])
        assert "invalid choice" in capsys.readouterr().err


class TestCompareMarkdownCli:
    def test_markdown_table_golden(self, tmp_path, capsys):
        baseline = _report_file(tmp_path, "base.json", [1.0, 1.0])
        new = _report_file(tmp_path, "new.json", [0.5, 1.6])
        args = [str(baseline), str(new), "--no-calibration", "--markdown"]
        exit_code = compare_main(args + ["--exit-zero"])
        assert exit_code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"**test suite vs {baseline.name}**"
        assert lines[2] == (
            "| scenario | baseline | new | runtime Δ | events/s | verdict |"
        )
        table = "\n".join(lines)
        fast = "| s0 | 1.000s | 0.500s | -50.0% | 2,000 (+100.0%) |"
        assert f"{fast} 🟢 faster |" in table
        slow = "| s1 | 1.000s | 1.600s | +60.0% | 625 (-37.5%) |"
        assert f"{slow} 🔴 regressed (> +25%) |" in table

    def test_markdown_gates_without_exit_zero(self, tmp_path, capsys):
        baseline = _report_file(tmp_path, "base.json", [1.0])
        slow = _report_file(tmp_path, "slow.json", [2.0])
        assert compare_main(
            [str(baseline), str(slow), "--no-calibration", "--markdown"]
        ) == 1
        assert "🔴 regressed" in capsys.readouterr().out

    def test_markdown_marks_subthreshold_baselines_ignored(self, tmp_path, capsys):
        baseline = _report_file(tmp_path, "base.json", [0.01])
        new = _report_file(tmp_path, "new.json", [0.05])
        assert compare_main(
            [str(baseline), str(new), "--no-calibration", "--markdown"]
        ) == 0
        assert "⚪ ignored (below min runtime)" in capsys.readouterr().out

    def test_malformed_report_exits_2_with_error(self, tmp_path, capsys):
        good = _report_file(tmp_path, "good.json", [1.0])
        bad = tmp_path / "bad.json"
        bad.write_text("{}")
        assert compare_main([str(good), str(bad), "--markdown"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_disjoint_reports_exit_2(self, tmp_path, capsys):
        baseline = _report_file(tmp_path, "base.json", [1.0])
        other = tmp_path / "other.json"
        scenario = make_scenario(
            name="elsewhere", runtime_s=1.0, peak_rss_kb=1, events=1
        )
        other.write_text(json.dumps(make_report("test", [scenario], 0.1)))
        assert compare_main([str(baseline), str(other)]) == 2
        assert "share no scenarios" in capsys.readouterr().err


class TestHarnessCli:
    def test_kernel_suite_reports_the_one_kernel(self, tmp_path, capsys):
        args = ["--suite", "kernel", "--scale", "0.02"]
        assert harness_main(args + ["--output-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "[perf] running kernel_microbench" in out
        report = json.loads((tmp_path / "BENCH_kernel.json").read_text())
        scenario = report["scenarios"][0]
        assert scenario["events_per_sec"] > 0
        assert scenario["metrics"] == {"chains": 50}
