"""Hot-path hygiene rules (HOT001 and HOT002).

These rules apply only to modules carrying a module-level
``# repro-lint: hot`` marker -- the per-event / per-message code the perf
suite actually measures.  They encode the allocation and attribute-lookup
discipline the fast-path PRs established:

* HOT001 -- ``lambda`` or nested ``def`` in a hot module: closure objects
  are allocated per call; pre-bind at ``__init__`` time instead.
* HOT002 -- per-call enum descriptor access (``MessageKind.GETS.value``):
  ``Enum.value`` is a descriptor call; resolve it once at import time (the
  ``category_key`` pattern in ``repro.network.message``).
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.framework import (
    SEVERITY_WARNING,
    FileContext,
    Finding,
    Rule,
    enclosing_functions,
)


class HotPathRule(Rule):
    """Base: applies only to ``# repro-lint: hot`` modules."""

    severity = SEVERITY_WARNING

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not ctx.hot:
            return
        yield from self.check_hot(ctx)

    def check_hot(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


class ClosureAllocationRule(HotPathRule):
    id = "HOT001"
    summary = "lambda/nested def in a hot module (per-call closure allocation)"

    def check_hot(self, ctx: FileContext) -> Iterator[Finding]:
        owners = enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Lambda):
                yield self.finding(
                    ctx,
                    node,
                    "lambda in a hot module: pre-bind the callable instead "
                    "of allocating a closure per call",
                )
            elif (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and owners[node] is not None
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"nested function {node.name!r} in a hot module: "
                    "closures are allocated per enclosing call",
                )


def _looks_like_enum_class(name: str) -> bool:
    return name[:1].isupper() and len(name) > 1


class EnumDescriptorRule(HotPathRule):
    id = "HOT002"
    summary = "per-call enum descriptor access (Member.value) in a hot module"

    def check_hot(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not (isinstance(node, ast.Attribute) and node.attr == "value"):
                continue
            member = node.value
            if (
                isinstance(member, ast.Attribute)
                and isinstance(member.value, ast.Name)
                and _looks_like_enum_class(member.value.id)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{ast.unparse(node)}: Enum.value is a descriptor call; "
                    "resolve it once at import time (category_key pattern)",
                )


RULES = (ClosureAllocationRule(), EnumDescriptorRule())
