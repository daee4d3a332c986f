"""Hot-path hygiene rules (HOT001-HOT004).

These rules apply only to modules carrying a module-level
``# repro-lint: hot`` marker -- the per-event / per-message code the perf
suite actually measures.  They encode the allocation and attribute-lookup
discipline the fast-path PRs established:

* HOT001 -- ``lambda`` or nested ``def`` in a hot module: closure objects
  are allocated per call; pre-bind at ``__init__`` time instead.
* HOT002 -- per-call enum descriptor access (``MessageKind.GETS.value``):
  ``Enum.value`` is a descriptor call; resolve it once at import time (the
  ``category_key`` pattern in ``repro.network.message``).
* HOT003 -- ``stats.counter(...)`` / ``stats.histogram(...)`` lookups
  outside ``__init__``: registry lookups per event defeat the pre-bound
  counter pattern.
* HOT004 -- reading a pre-bound counter attribute (``self._ctr_*``) inside
  a loop body: hoist the handle before the loop.
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
    parent_map,
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


_SETUP_FUNCTIONS = frozenset(
    {"__init__", "__post_init__", "__init_subclass__", "reset", "attach"}
)


class StatsLookupRule(HotPathRule):
    id = "HOT003"
    summary = "stats.counter()/histogram() lookup outside __init__ in hot code"

    def check_hot(self, ctx: FileContext) -> Iterator[Finding]:
        owners = enclosing_functions(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "histogram")
                and isinstance(node.func.value, (ast.Name, ast.Attribute))
            ):
                continue
            receiver = node.func.value
            receiver_name = (
                receiver.id if isinstance(receiver, ast.Name) else receiver.attr
            )
            if receiver_name != "stats":
                continue
            owner = owners[node]
            if owner is not None and owner.name in _SETUP_FUNCTIONS:
                continue
            yield self.finding(
                ctx,
                node,
                f"stats.{node.func.attr}(...) outside __init__: pre-bind "
                "the counter handle at construction time",
            )


class CounterInLoopRule(HotPathRule):
    id = "HOT004"
    summary = "pre-bound counter attribute (self._ctr_*) read inside a loop"

    def check_hot(self, ctx: FileContext) -> Iterator[Finding]:
        parents = parent_map(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Attribute)
                and node.attr.startswith("_ctr_")
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                continue
            if self._inside_loop_body(node, parents):
                yield self.finding(
                    ctx,
                    node,
                    f"self.{node.attr} read inside a loop body: hoist the "
                    "counter handle before the loop",
                )

    @staticmethod
    def _inside_loop_body(node: ast.AST, parents) -> bool:
        child = node
        current = parents.get(node)
        while current is not None and not isinstance(
            current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)
        ):
            if isinstance(current, (ast.For, ast.While)) and child in (
                current.body + current.orelse
            ):
                return True
            child = current
            current = parents.get(current)
        return False


RULES = (
    ClosureAllocationRule(),
    EnumDescriptorRule(),
    StatsLookupRule(),
    CounterInLoopRule(),
)
