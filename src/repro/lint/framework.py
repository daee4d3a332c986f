"""Rule framework for the ``repro.lint`` static analyzer.

The analyzer is a plain stdlib-``ast`` pass: every rule receives one parsed
file (a :class:`FileContext`) and yields :class:`Finding` objects.  The
framework owns everything rule-independent:

* file discovery and parsing (syntax errors become ``LNT999`` findings),
* suppression comments (``# repro-lint: disable=ID -- reason`` on a line,
  ``# repro-lint: disable-file=ID -- reason`` anywhere in the file; a
  directive without a ``-- reason`` is itself a finding, ``LNT001``),
* the ``# repro-lint: hot`` module marker consumed by the hot-path rules,
* rule selection (``--select`` / ``--ignore`` by id prefix) and the stable
  ordering of the final report.

Rules live in the sibling modules (``determinism``, ``pools`` and
``hotpath``); :mod:`repro.lint` aggregates them into ``ALL_RULES``.
"""

from __future__ import annotations

import ast
import io
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: Framework-level rule ids (reported without a Rule object).
BAD_DIRECTIVE = "LNT001"
SYNTAX_ERROR = "LNT999"

_DIRECTIVE_PREFIX = "repro-lint:"


@dataclass(frozen=True)
class Finding:
    """One reported violation, anchored to a file position."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.severity}: {self.message}"
        )

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)


@dataclass
class Suppressions:
    """Parsed ``# repro-lint:`` directives of one file."""

    #: rule-id prefix -> reason, applied to the whole file.
    file_level: Dict[str, str] = field(default_factory=dict)
    #: line number -> {rule-id prefix -> reason}.
    line_level: Dict[int, Dict[str, str]] = field(default_factory=dict)
    #: malformed directives: (line, message) pairs, reported as LNT001.
    malformed: List[Tuple[int, str]] = field(default_factory=list)
    hot: bool = False

    def covers(self, rule: str, line: int) -> bool:
        entries = list(self.file_level)
        entries.extend(self.line_level.get(line, ()))
        return any(rule.startswith(prefix) for prefix in entries)


@dataclass
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str
    source: str
    tree: ast.Module
    suppressions: Suppressions

    @property
    def hot(self) -> bool:
        return self.suppressions.hot


class Rule:
    """Base class: one ``check`` pass over a file.

    Most rules report a single id; a rule that emits several related ids
    (the pool-safety walk) lists them all in ``catalog`` so ``--select`` /
    ``--ignore`` and ``--list-rules`` see every id.
    """

    id: str = "???"
    severity: str = SEVERITY_ERROR
    summary: str = ""

    @property
    def catalog(self) -> Tuple[Tuple[str, str, str], ...]:
        """(id, severity, summary) rows this rule can report."""
        return ((self.id, self.severity, self.summary),)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            rule=self.id,
            severity=self.severity,
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
        )


@dataclass
class LintResult:
    """Outcome of one analyzer run."""

    findings: List[Finding]
    files_scanned: int
    suppressed: int

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == SEVERITY_ERROR)

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == SEVERITY_WARNING)


# ------------------------------------------------------------------ directives
def _directive_target(lines: List[str], line: int, col: int) -> int:
    """Line a directive applies to.

    A trailing comment covers its own line; a standalone comment line
    covers the next non-blank, non-comment line (so justifications can sit
    above the code they excuse).
    """
    if lines[line - 1][:col].strip():
        return line
    for offset in range(line, len(lines)):
        stripped = lines[offset].strip()
        if stripped and not stripped.startswith("#"):
            return offset + 1
    return line


def parse_directives(source: str) -> Suppressions:
    """Extract every ``# repro-lint:`` comment via the tokenizer.

    Tokenizing (rather than scanning raw lines) keeps directive-shaped
    string literals -- this package's own sources and tests are full of
    them -- from being misread as directives.
    """
    suppressions = Suppressions()
    lines = source.splitlines()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        comments = [
            (token.start[0], token.start[1], token.string)
            for token in tokens
            if token.type == tokenize.COMMENT
        ]
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return suppressions

    for line, col, comment in comments:
        body = comment.lstrip("#").strip()
        if not body.startswith(_DIRECTIVE_PREFIX):
            continue
        directive = body[len(_DIRECTIVE_PREFIX) :].strip()
        if directive == "hot":
            suppressions.hot = True
            continue
        if directive.startswith("disable-file=") or directive.startswith("disable="):
            verb, _, rest = directive.partition("=")
            ids_part, sep, reason = rest.partition("--")
            reason = reason.strip()
            if not sep or not reason:
                suppressions.malformed.append(
                    (line, f"'{verb}' directive is missing a '-- reason'")
                )
                continue
            ids = [part.strip() for part in ids_part.split(",") if part.strip()]
            if not ids:
                suppressions.malformed.append(
                    (line, f"'{verb}' directive names no rule ids")
                )
                continue
            if verb == "disable-file":
                target = suppressions.file_level
            else:
                covered = _directive_target(lines, line, col)
                target = suppressions.line_level.setdefault(covered, {})
            for rule_id in ids:
                target[rule_id] = reason
        else:
            suppressions.malformed.append(
                (line, f"unrecognised repro-lint directive {directive!r}")
            )
    return suppressions


# ------------------------------------------------------------------- discovery
def iter_python_files(paths: Sequence[str]) -> List[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(
                candidate
                for candidate in sorted(path.rglob("*.py"))
                if "__pycache__" not in candidate.parts
            )
        elif path.is_file():
            files.append(path)
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
    return files


def _rule_ids(rule: Rule) -> List[str]:
    return [row[0] for row in rule.catalog]


def matches_filters(
    rule_id: str,
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> bool:
    """Would a finding with this id survive ``--select`` / ``--ignore``?"""
    if select and not any(rule_id.startswith(prefix) for prefix in select):
        return False
    if ignore and any(rule_id.startswith(prefix) for prefix in ignore):
        return False
    return True


def select_rules(
    rules: Sequence[Rule],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> List[Rule]:
    """Rules that can still report something under the id filters."""
    known = {rule_id for rule in rules for rule_id in _rule_ids(rule)}
    known.update((BAD_DIRECTIVE, SYNTAX_ERROR))
    for prefixes in (select, ignore):
        for prefix in prefixes or ():
            if not any(rule_id.startswith(prefix) for rule_id in known):
                raise ValueError(f"no rule matches id or prefix {prefix!r}")
    return [
        rule
        for rule in rules
        if any(
            matches_filters(rule_id, select, ignore)
            for rule_id in _rule_ids(rule)
        )
    ]


# ---------------------------------------------------------------------- runner
def lint_source(
    path: str, source: str, rules: Sequence[Rule]
) -> Tuple[List[Finding], int]:
    """Lint one already-read file; returns (findings, suppressed count)."""
    findings: List[Finding] = []
    suppressions = parse_directives(source)
    for line, message in suppressions.malformed:
        findings.append(Finding(BAD_DIRECTIVE, SEVERITY_ERROR, path, line, 1, message))
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        findings.append(
            Finding(
                SYNTAX_ERROR,
                SEVERITY_ERROR,
                path,
                exc.lineno or 1,
                (exc.offset or 0) + 1,
                f"file does not parse: {exc.msg}",
            )
        )
        return findings, 0

    ctx = FileContext(path=path, source=source, tree=tree, suppressions=suppressions)
    suppressed = 0
    for rule in rules:
        for finding in rule.check(ctx):
            if suppressions.covers(finding.rule, finding.line):
                suppressed += 1
            else:
                findings.append(finding)
    return findings, suppressed


def run_paths(
    paths: Sequence[str],
    rules: Sequence[Rule],
    select: Optional[Sequence[str]] = None,
    ignore: Optional[Sequence[str]] = None,
) -> LintResult:
    """Lint every python file under ``paths`` with the selected rules."""
    active = select_rules(rules, select, ignore)
    findings: List[Finding] = []
    suppressed = 0
    files = iter_python_files(paths)
    for file_path in files:
        source = file_path.read_text(encoding="utf-8")
        file_findings, file_suppressed = lint_source(
            file_path.as_posix(), source, active
        )
        findings.extend(
            finding
            for finding in file_findings
            if matches_filters(finding.rule, select, ignore)
        )
        suppressed += file_suppressed
    findings.sort(key=lambda finding: finding.sort_key)
    return LintResult(
        findings=findings, files_scanned=len(files), suppressed=suppressed
    )


def enclosing_functions(tree: ast.AST) -> Dict[ast.AST, Optional[ast.AST]]:
    """node -> nearest enclosing FunctionDef/AsyncFunctionDef (or None)."""
    owners: Dict[ast.AST, Optional[ast.AST]] = {}

    def visit(node: ast.AST, owner: Optional[ast.AST]) -> None:
        owners[node] = owner
        next_owner = (
            node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            else owner
        )
        for child in ast.iter_child_nodes(node):
            visit(child, next_owner)

    visit(tree, None)
    return owners


def rule_catalog(rules: Iterable[Rule]) -> List[Tuple[str, str, str]]:
    """(id, severity, summary) rows for ``--list-rules``."""
    rows = [row for rule in rules for row in rule.catalog]
    rows.append((BAD_DIRECTIVE, SEVERITY_ERROR, "malformed repro-lint directive"))
    rows.append((SYNTAX_ERROR, SEVERITY_ERROR, "file does not parse"))
    return sorted(rows)
