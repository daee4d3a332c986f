"""Command-line entry point: ``python -m repro.lint [paths...]``.

Exit codes: 0 clean, 1 findings reported, 2 usage error (bad path or
unknown rule id).  ``--json`` writes a machine-readable artifact for CI;
``--markdown`` renders the findings table GitHub step summaries expect.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.lint.framework import LintResult, rule_catalog, run_paths


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Static analyzer for the repro simulator: determinism, "
            "pooled-shell ownership and hot-path hygiene."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        help="comma-separated rule ids/prefixes to run (e.g. DET,POOL002)",
    )
    parser.add_argument(
        "--ignore",
        metavar="IDS",
        help="comma-separated rule ids/prefixes to skip",
    )
    parser.add_argument(
        "--json",
        metavar="FILE",
        help="write findings as a JSON artifact to FILE",
    )
    parser.add_argument(
        "--markdown",
        action="store_true",
        help="print a GitHub-flavoured findings table instead of plain text",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "-q",
        "--quiet",
        action="store_true",
        help="suppress per-finding output (summary line only)",
    )
    return parser


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    ids = [part.strip() for part in raw.split(",") if part.strip()]
    return ids or None


def _render_markdown(result: LintResult) -> str:
    lines = ["## repro.lint", ""]
    if not result.findings:
        lines.append(
            f"No findings in {result.files_scanned} files "
            f"({result.suppressed} suppressed)."
        )
        return "\n".join(lines)
    lines.append("| location | rule | severity | message |")
    lines.append("| --- | --- | --- | --- |")
    for finding in result.findings:
        message = finding.message.replace("|", "\\|")
        lines.append(
            f"| `{finding.path}:{finding.line}` | {finding.rule} "
            f"| {finding.severity} | {message} |"
        )
    lines.append("")
    lines.append(
        f"**{len(result.findings)} findings** ({result.errors} errors, "
        f"{result.warnings} warnings) in {result.files_scanned} files; "
        f"{result.suppressed} suppressed."
    )
    return "\n".join(lines)


def _write_json(result: LintResult, destination: str) -> None:
    payload = {
        "version": 1,
        "files_scanned": result.files_scanned,
        "suppressed": result.suppressed,
        "counts": {
            "findings": len(result.findings),
            "errors": result.errors,
            "warnings": result.warnings,
        },
        "findings": [finding.to_dict() for finding in result.findings],
    }
    with open(destination, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    from repro.lint import ALL_RULES

    if args.list_rules:
        for rule_id, severity, summary in rule_catalog(ALL_RULES):
            print(f"{rule_id}  {severity:<7}  {summary}")
        return 0

    try:
        result = run_paths(
            args.paths,
            ALL_RULES,
            select=_split_ids(args.select),
            ignore=_split_ids(args.ignore),
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        _write_json(result, args.json)

    if args.markdown:
        print(_render_markdown(result))
    else:
        if not args.quiet:
            for finding in result.findings:
                print(finding.render())
        if result.findings:
            print(
                f"[repro.lint] {len(result.findings)} findings "
                f"({result.errors} errors, {result.warnings} warnings) in "
                f"{result.files_scanned} files; {result.suppressed} suppressed"
            )
        else:
            print(
                f"[repro.lint] clean: {result.files_scanned} files, "
                f"{result.suppressed} suppressed findings"
            )

    return 1 if result.findings else 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
