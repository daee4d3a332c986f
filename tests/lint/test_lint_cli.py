"""CLI-level tests for ``python -m repro.lint``.

Drives :func:`repro.lint.cli.main` end to end, the same way CI invokes
it: exit codes (0 clean / 1 findings / 2 usage error), the ``--json``
artifact schema, the ``--markdown`` step-summary table, rule listing and
``--select`` / ``--ignore`` filtering.
"""

import json
from pathlib import Path

from repro.lint.cli import main

REPO_ROOT = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
SRC = str(REPO_ROOT / "src")


class TestExitCodes:
    def test_shipped_tree_is_clean(self, capsys):
        """The acceptance gate: the analyzer exits 0 on src/."""
        assert main([SRC]) == 0
        assert "[repro.lint] clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path]) == 1
        out = capsys.readouterr().out
        assert "POOL002" in out
        assert "[repro.lint] 4 findings" in out

    def test_missing_path_is_a_usage_error(self, capsys):
        assert main(["no/such/path.py"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_prefix_is_a_usage_error(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--select", "NOPE"]) == 2
        assert "no rule matches" in capsys.readouterr().err


class TestFiltering:
    def test_select_narrows_to_one_id(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--select", "POOL002"]) == 1
        out = capsys.readouterr().out
        assert "POOL002" in out
        assert "POOL001" not in out
        assert "POOL003" not in out

    def test_ignore_family_prefix_silences_everything(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--ignore", "POOL"]) == 0
        assert "[repro.lint] clean" in capsys.readouterr().out

    def test_quiet_keeps_only_the_summary(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--quiet"]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 1
        assert out[0].startswith("[repro.lint] 4 findings")


class TestArtifacts:
    def test_json_artifact_schema(self, tmp_path, capsys):
        artifact = tmp_path / "lint.json"
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--json", str(artifact), "--quiet"]) == 1
        capsys.readouterr()
        payload = json.loads(artifact.read_text())
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"]["findings"] == len(payload["findings"]) == 4
        assert payload["counts"]["errors"] == 4
        for finding in payload["findings"]:
            assert {"rule", "severity", "path", "line", "col", "message"} <= (
                set(finding)
            )
        rules = [finding["rule"] for finding in payload["findings"]]
        assert rules == sorted(rules, key=rules.index)  # stable file order

    def test_markdown_renders_the_findings_table(self, capsys):
        path = str(FIXTURES / "pool_violations.py")
        assert main([path, "--markdown"]) == 1
        out = capsys.readouterr().out
        assert "## repro.lint" in out
        assert "| location | rule | severity | message |" in out
        assert "POOL003" in out
        assert "**4 findings**" in out

    def test_markdown_clean_message(self, capsys):
        path = str(FIXTURES / "pool_clean.py")
        assert main([path, "--markdown"]) == 0
        assert "No findings" in capsys.readouterr().out


class TestRuleCatalog:
    def test_list_rules_names_every_id(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        listed = {line.split()[0] for line in out.splitlines() if line.strip()}
        assert listed == {
            "DET001",
            "DET002",
            "DET003",
            "DET004",
            "DET005",
            "POOL001",
            "POOL002",
            "POOL003",
            "HOT001",
            "HOT002",
            "LNT001",
            "LNT999",
        }
