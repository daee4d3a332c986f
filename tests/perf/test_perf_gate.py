"""The CI perf gate (``benchmarks/perf_gate.py``): verdicts and subprocess path."""

import contextlib
import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
_spec = importlib.util.spec_from_file_location(
    "perf_gate", ROOT / "benchmarks" / "perf_gate.py"
)
perf_gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(perf_gate)

SIDES = perf_gate.SIDES


def _records(reference, change, name="s"):
    records = []
    for pair, walls in enumerate(zip(reference, change)):
        for side, wall in zip(SIDES, walls):
            records.append(
                {"pair": pair, "side": side, "scenario": name, "wall_s": wall}
            )
    return records


def test_bound_floor_and_pairs_are_pinned():
    assert (perf_gate.PAIRS, perf_gate.BOUND, perf_gate.FLOOR_S) == (5, 1.25, 0.05)


class TestSuites:
    SCALE = (
        "scale_snooping",
        "scale_snooping_256",
        "scale_directory",
        "scale_mesi_directory",
    )
    FIGURES = ("figure3_runtime", "figure4_traffic", "parallel_sweep")

    def test_pr_suite(self):
        assert perf_gate.SUITES["pr"] == {
            "kernel_microbench": 0.4,
            **dict.fromkeys(self.FIGURES, 0.4),
            **dict.fromkeys(self.SCALE, 0.15),
        }

    def test_nightly_suite_gates_every_scale_scenario(self):
        assert perf_gate.SUITES["nightly"] == {
            **dict.fromkeys(self.FIGURES, 1.0),
            **dict.fromkeys(self.SCALE, 0.5),
        }

    @pytest.mark.parametrize("name", sorted(perf_gate.SCENARIOS))
    def test_scenario_runs_at_a_tiny_scale(self, name):
        assert perf_gate.SCENARIOS[name](0.01) > 0


class TestJudge:
    @pytest.mark.parametrize("ratio, failed", [(1.26, True), (1.24, False)])
    def test_bound_is_25_percent(self, ratio, failed):
        rows, gate_failed = perf_gate.judge(_records([1.0] * 5, [ratio] * 5), ["s"])
        assert gate_failed is failed
        assert rows[0]["ratio"] == pytest.approx(ratio)
        assert rows[0]["verdict"].startswith("REGRESSED" if failed else "ok")

    def test_reference_under_floor_never_fails(self):
        rows, failed = perf_gate.judge(_records([0.049] * 5, [0.5] * 5), ["s"])
        assert not failed
        assert "not gated" in rows[0]["verdict"]

    @pytest.mark.parametrize("side", SIDES)
    def test_raising_side_fails(self, side):
        records = _records([1.0] * 5, [1.0] * 5)
        broken = next(r for r in records if r["side"] == side)
        del broken["wall_s"]
        broken["error"] = error = "ZeroDivisionError: division by zero"
        rows, failed = perf_gate.judge(records, ["s"])
        assert failed
        assert rows[0]["verdict"] == f"raised ({side}: {error})"

    @pytest.mark.parametrize("side", SIDES)
    def test_missing_side_fails(self, side):
        records = [r for r in _records([1.0] * 5, [1.0] * 5) if r["side"] != side]
        rows, failed = perf_gate.judge(records, ["s"])
        assert failed
        assert rows[0]["verdict"] == f"missing on {side}"

    def test_scenario_absent_from_both_sides_fails(self):
        rows, failed = perf_gate.judge(_records([1.0] * 5, [1.0] * 5), ["s", "t"])
        assert failed
        assert [row["failed"] for row in rows] == [False, True]
        assert rows[1]["verdict"] == "missing on reference and change"

    def test_medians_quartiles_and_pairs_won(self):
        records = _records([1, 2, 3, 4, 5], [0.5, 2.5, 3, 3, 6])
        (row,), _ = perf_gate.judge(records, ["s"])
        assert row["reference"] == (3, 2, 4)
        assert row["change"][0] == 3
        assert row["won"] == "2/5"

    def test_render_names_the_failed_scenarios(self):
        records = _records([1.0] * 5, [1.0] * 5, "fast")
        records += _records([1.0] * 5, [2.0] * 5, "slow")
        rows, _ = perf_gate.judge(records, ["fast", "slow"])
        table = perf_gate.render(rows, "title").splitlines()
        assert table[0] == "### title"
        assert table[4].startswith("| scenario | reference | change | ratio |")
        assert table[7] == (
            "| slow | 1.000 (1.000-1.000) | 2.000 (2.000-2.000) | 2.00x | 0/5"
            " | REGRESSED (> 1.25x) |"
        )
        assert table[-1] == "**FAIL**: slow"


class TestMeasure:
    def test_each_pair_swaps_the_side_that_starts(self, monkeypatch, tmp_path):
        calls = []

        def fake_run(src, suite, name):
            calls.append((src.name, name))
            return {"wall_s": 1.0}

        monkeypatch.setattr(perf_gate, "run_in_subprocess", fake_run)
        trees = {"reference": tmp_path / "ref", "change": tmp_path / "new"}
        log = tmp_path / "walls.jsonl"
        records = perf_gate.measure("pr", ["a", "b"], trees, log)
        first = [("ref", "a"), ("new", "a"), ("ref", "b"), ("new", "b")]
        second = [("new", "a"), ("ref", "a"), ("new", "b"), ("ref", "b")]
        assert calls == (first + second) * 2 + first
        assert [r["pair"] for r in records[::4]] == list(range(perf_gate.PAIRS))
        assert len(log.read_text().splitlines()) == len(records) == 20


class TestSubprocessPath:
    def test_real_scenario_alternates_against_current_src(self, tmp_path):
        log = tmp_path / "walls.jsonl"
        trees = dict.fromkeys(SIDES, SRC)
        records = perf_gate.measure("pr", ["kernel_microbench"], trees, log, pairs=2)
        sides = [record["side"] for record in records]
        assert sides == ["reference", "change", "change", "reference"]
        assert all(record["wall_s"] > 0 for record in records)
        assert [json.loads(line) for line in log.read_text().splitlines()] == records
        (row,), _ = perf_gate.judge(records, ["kernel_microbench"])
        assert row["won"].endswith("/2")

    def test_raising_scenario_is_recorded(self, tmp_path):
        # An empty tree has no ``repro`` to import: the scenario raises.
        result = perf_gate.run_in_subprocess(tmp_path / "src", "pr", "figure3_runtime")
        assert "No module named 'repro'" in result["error"]

    @pytest.mark.parametrize(
        "script, error",
        [
            ("print('no wall time here')", "no measurement in output"),
            ("import sys; sys.exit(3)", "exit 3"),
        ],
    )
    def test_subprocess_without_a_measurement_is_an_error(
        self, monkeypatch, tmp_path, script, error
    ):
        gate = tmp_path / "gate.py"
        gate.write_text(script + "\n")
        monkeypatch.setattr(perf_gate, "GATE", gate)
        result = perf_gate.run_in_subprocess(SRC, "pr", "kernel_microbench")
        assert error in result["error"]

    def test_subprocess_timeout_is_an_error(self, monkeypatch, tmp_path):
        gate = tmp_path / "gate.py"
        gate.write_text("import time; time.sleep(30)\n")
        monkeypatch.setattr(perf_gate, "GATE", gate)
        monkeypatch.setattr(perf_gate, "RUN_TIMEOUT_S", 0.5)
        result = perf_gate.run_in_subprocess(SRC, "pr", "kernel_microbench")
        assert result == {"error": "timed out after 0.5 s"}

    def test_run_entry_prints_the_wall_time(self, capsys):
        assert perf_gate.main(["--suite", "pr", "--run", "kernel_microbench"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["scenario"] == "kernel_microbench"
        assert printed["wall_s"] > 0

    def test_passing_suite_exits_0(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            perf_gate, "reference_tree", lambda sha: contextlib.nullcontext(ROOT)
        )
        names = list(perf_gate.SUITES["nightly"])
        records = [r for name in names for r in _records([1.0], [1.1], name)]
        monkeypatch.setattr(perf_gate, "measure", lambda *args: records)
        assert perf_gate.main(["--suite", "nightly"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("### Perf gate, nightly suite: change vs reference ")
        assert all(f"| {name} |" in out for name in names)
        assert "**PASS**" in out

    def test_missing_side_exits_1(self, monkeypatch, tmp_path, capsys):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(
            perf_gate, "reference_tree", lambda sha: contextlib.nullcontext(ROOT)
        )
        names = list(perf_gate.SUITES["pr"])
        records = [r for name in names for r in _records([1.0], [1.0], name)]
        records.pop()  # the last scenario has no change-side wall
        monkeypatch.setattr(perf_gate, "measure", lambda *args: records)
        assert perf_gate.main(["--suite", "pr"]) == 1
        out = capsys.readouterr().out
        assert f"| {names[-1]} |" in out
        assert f"**FAIL**: {names[-1]}" in out

    def test_run_rejects_a_scenario_outside_its_suite(self, capsys):
        with pytest.raises(SystemExit):
            perf_gate.main(["--suite", "nightly", "--run", "kernel_microbench"])
        assert "not in the nightly suite" in capsys.readouterr().err


class TestReferenceTree:
    def test_reference_file_holds_one_commit_sha(self):
        text = perf_gate.REFERENCE_FILE.read_text()
        assert re.fullmatch(r"[0-9a-f]{40}\n?", text)
        assert perf_gate.reference_sha() == text.strip()

    IDENTITY = (
        "-c",
        "user.name=gate",
        "-c",
        "user.email=gate@example.com",
        "-c",
        "commit.gpgsign=false",
    )

    def _repo(self, path):
        def git(*args):
            command = ["git", "-C", str(path), *self.IDENTITY, *args]
            done = subprocess.run(command, check=True, capture_output=True, text=True)
            return done.stdout.strip()

        path.mkdir()
        git("init", "-q")
        (path / "marker.txt").write_text("reference\n")
        git("add", "marker.txt")
        git("commit", "-q", "-m", "reference")
        return git

    def test_checks_out_the_sha_and_removes_it(self, monkeypatch, tmp_path):
        git = self._repo(tmp_path / "repo")
        sha = git("rev-parse", "HEAD")
        (tmp_path / "repo" / "marker.txt").write_text("change\n")
        monkeypatch.setattr(perf_gate, "ROOT", tmp_path / "repo")
        with perf_gate.reference_tree(sha) as tree:
            assert (tree / "marker.txt").read_text() == "reference\n"
            assert git("-C", str(tree), "rev-parse", "HEAD") == sha
        assert not tree.exists()
        assert len(git("worktree", "list").splitlines()) == 1

    def test_unknown_sha_exits(self, monkeypatch, tmp_path):
        self._repo(tmp_path / "repo")
        monkeypatch.setattr(perf_gate, "ROOT", tmp_path / "repo")
        with pytest.raises(SystemExit, match="cannot check out reference 0{40}"):
            with perf_gate.reference_tree("0" * 40):
                pass
