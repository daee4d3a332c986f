"""Static analysis for the repro simulator (``python -m repro.lint``).

Two rule families guard the invariants the fast-path work depends on:

* ``DET*`` -- determinism (no set-order, ambient randomness or wall-clock
  dependence inside the simulation packages);
* ``HOT*`` -- hot-path hygiene in ``# repro-lint: hot`` modules.

See :mod:`repro.lint.framework` for the suppression-comment syntax and
:mod:`repro.lint.cli` for the command line.
"""

from repro.lint.determinism import RULES as DETERMINISM_RULES
from repro.lint.framework import (
    FileContext,
    Finding,
    LintResult,
    Rule,
    lint_source,
    rule_catalog,
    run_paths,
)
from repro.lint.hotpath import RULES as HOTPATH_RULES

#: Every registered rule, in reporting-id order.
ALL_RULES = (*DETERMINISM_RULES, *HOTPATH_RULES)


def run(paths, select=None, ignore=None) -> LintResult:
    """Lint ``paths`` with every registered rule (library entry point)."""
    return run_paths(paths, ALL_RULES, select=select, ignore=ignore)


__all__ = [
    "ALL_RULES",
    "FileContext",
    "Finding",
    "LintResult",
    "Rule",
    "lint_source",
    "rule_catalog",
    "run",
    "run_paths",
]
