"""Golden-fixture tests for the ``repro.lint`` rule families.

Each fixture under ``fixtures/`` marks its expected findings with
trailing ``# expect: RULE`` comments; the tests diff the analyzer's
(rule, line) output against those markers, so the fixtures and the
expectations can never drift apart.  Clean fixtures assert the absence
of false positives on the idioms the rules are meant to steer toward.
"""

from pathlib import Path

from repro.lint import ALL_RULES
from repro.lint.framework import (
    BAD_DIRECTIVE,
    SYNTAX_ERROR,
    lint_source,
    parse_directives,
)

FIXTURES = Path(__file__).parent / "fixtures"


def expected_markers(path: Path):
    """(rule, line) pairs declared by ``# expect:`` markers in a fixture."""
    expected = set()
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        marker = line.partition("# expect:")[2]
        for rule in marker.split(","):
            if rule.strip():
                expected.add((rule.strip(), lineno))
    return expected


def lint_fixture(relative: str):
    path = FIXTURES / relative
    findings, suppressed = lint_source(path.as_posix(), path.read_text(), ALL_RULES)
    return {(finding.rule, finding.line) for finding in findings}, suppressed


class TestDeterminismRules:
    def test_violations_match_markers(self):
        actual, _ = lint_fixture("repro/sim/det_violations.py")
        assert actual == expected_markers(
            FIXTURES / "repro" / "sim" / "det_violations.py"
        )

    def test_clean_fixture_produces_nothing(self):
        actual, _ = lint_fixture("repro/sim/det_clean.py")
        assert actual == set()

    def test_rules_only_apply_inside_simulation_packages(self):
        source = (FIXTURES / "repro" / "sim" / "det_violations.py").read_text()
        findings, _ = lint_source("somewhere/unrelated.py", source, ALL_RULES)
        assert findings == []

    def test_randomness_module_is_exempt(self):
        source = "import random\n"
        findings, _ = lint_source("src/repro/sim/randomness.py", source, ALL_RULES)
        assert findings == []


class TestPoolSafetyRules:
    def test_violations_match_markers(self):
        actual, _ = lint_fixture("pool_violations.py")
        assert actual == expected_markers(FIXTURES / "pool_violations.py")

    def test_clean_fixture_produces_nothing(self):
        """Transfers, per-branch releases, raise paths and the allowlisted
        consumption point must all satisfy the walk."""
        actual, _ = lint_fixture("pool_clean.py")
        assert actual == set()


class TestHotPathRules:
    def test_violations_match_markers(self):
        actual, _ = lint_fixture("hot_violations.py")
        assert actual == expected_markers(FIXTURES / "hot_violations.py")

    def test_rules_are_inert_without_the_hot_marker(self):
        source = (FIXTURES / "hot_violations.py").read_text()
        unmarked = source.replace("# repro-lint: hot\n", "")
        findings, _ = lint_source("cold_module.py", unmarked, ALL_RULES)
        assert findings == []


class TestSuppressions:
    def test_all_three_directive_forms_suppress(self):
        actual, suppressed = lint_fixture("suppressed.py")
        assert actual == set()
        assert suppressed == 3

    def test_malformed_directives_are_findings(self):
        actual, _ = lint_fixture("malformed.py")
        assert actual == {(BAD_DIRECTIVE, 2), (BAD_DIRECTIVE, 3)}

    def test_directive_shaped_strings_are_not_directives(self):
        source = 'MESSAGE = "# repro-lint: disable=DET001"\n'
        suppressions = parse_directives(source)
        assert not suppressions.file_level
        assert not suppressions.line_level
        assert not suppressions.malformed

    def test_syntax_error_becomes_lnt999(self, tmp_path):
        broken = tmp_path / "broken.py"
        broken.write_text("def broken(:\n")
        findings, _ = lint_source(broken.as_posix(), broken.read_text(), ALL_RULES)
        assert [finding.rule for finding in findings] == [SYNTAX_ERROR]
        assert findings[0].severity == "error"
