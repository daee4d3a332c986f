"""Determinism rules (DET001-DET005).

Bit-identical replay is the oracle every fast-path optimisation in this
repository is tested against, so simulation code must never let interpreter
state leak into model behaviour.  These rules police the known leak vectors
inside the simulation packages (``repro/{sim,core,protocols,network,memory,
processor}``); ``repro/sim/randomness.py`` is exempt -- it is the one module
allowed to wrap :mod:`random` behind a seeded facade.

* DET001 -- iteration over a ``set``/``frozenset`` (literal, constructor, or
  a local name bound to one).  Set order depends on insertion history and,
  for strings, on the per-process hash seed; wrap in ``sorted(...)``.
* DET002 -- iterating a dict view (``.keys()``/``.values()``/``.items()``)
  in a loop whose body schedules, sends or broadcasts.  Insertion order is
  deterministic *today*, but a refactor that changes build order silently
  reorders events; make the order explicit (or suppress with the reason the
  insertion order is canonical).
* DET003 -- importing :mod:`random` (use ``repro.sim.randomness``).
* DET004 -- wall-clock reads (``time.time``/``perf_counter``/``monotonic``,
  ``datetime.now``/``utcnow``).
* DET005 -- calls to ``id()`` or ``hash()``: both are interpreter state and
  must never key or order simulation behaviour.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, List, Set, Tuple

from repro.lint.framework import (
    SEVERITY_ERROR,
    FileContext,
    Finding,
    Rule,
    enclosing_functions,
)

_SCOPE = re.compile(r"repro/(sim|core|protocols|network|memory|processor)/")
_EXEMPT_SUFFIXES = ("repro/sim/randomness.py",)


def in_determinism_scope(path: str) -> bool:
    """True for files inside the simulation packages (fixtures mirror them)."""
    return bool(_SCOPE.search(path)) and not path.endswith(_EXEMPT_SUFFIXES)


class DeterminismRule(Rule):
    """Base: applies only inside the simulation packages."""

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if not in_determinism_scope(ctx.path):
            return
        yield from self.check_scoped(ctx)

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        raise NotImplementedError


def _is_set_expr(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _set_bound_names(tree: ast.AST) -> Set[Tuple[ast.AST, str]]:
    """(enclosing function, name) pairs directly bound to a set expression."""
    owners = enclosing_functions(tree)
    bound: Set[Tuple[ast.AST, str]] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _is_set_expr(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add((owners[node], target.id))
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if _is_set_expr(node.value) and isinstance(node.target, ast.Name):
                bound.add((owners[node], node.target.id))
    return bound


class SetIterationRule(DeterminismRule):
    id = "DET001"
    severity = SEVERITY_ERROR
    summary = "iteration over a set/frozenset (order is interpreter state)"

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        bound = _set_bound_names(ctx.tree)
        owners = enclosing_functions(ctx.tree)

        def flag(iter_node: ast.AST, where: ast.AST) -> bool:
            if _is_set_expr(iter_node):
                return True
            return isinstance(iter_node, ast.Name) and (
                (owners[where], iter_node.id) in bound
            )

        for node in ast.walk(ctx.tree):
            iters: List[ast.AST] = []
            if isinstance(node, ast.For):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for iter_node in iters:
                if flag(iter_node, node):
                    yield self.finding(
                        ctx,
                        iter_node,
                        "iterating a set: order depends on interpreter "
                        "state; wrap in sorted(...)",
                    )


_SCHEDULING_NAMES = ("send", "broadcast")


def _is_scheduling_call(node: ast.Call) -> bool:
    func = node.func
    name = ""
    if isinstance(func, ast.Name):
        name = func.id
    elif isinstance(func, ast.Attribute):
        name = func.attr
    return "sched" in name or name in _SCHEDULING_NAMES


class DictViewSchedulingRule(DeterminismRule):
    id = "DET002"
    severity = SEVERITY_ERROR
    summary = "dict-view iteration feeding schedule/send/broadcast calls"

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.For):
                continue
            iter_node = node.iter
            if not (
                isinstance(iter_node, ast.Call)
                and isinstance(iter_node.func, ast.Attribute)
                and iter_node.func.attr in ("keys", "values", "items")
                and not iter_node.args
            ):
                continue
            body_calls = [
                inner
                for stmt in node.body
                for inner in ast.walk(stmt)
                if isinstance(inner, ast.Call) and _is_scheduling_call(inner)
            ]
            if body_calls:
                yield self.finding(
                    ctx,
                    iter_node,
                    f"dict .{iter_node.func.attr}() order reaches "
                    f"scheduling ({ast.unparse(body_calls[0].func)}); make "
                    "the iteration order explicit",
                )


class RandomImportRule(DeterminismRule):
    id = "DET003"
    severity = SEVERITY_ERROR
    summary = "import of random outside repro.sim.randomness"

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root == "random" or alias.name.endswith(".random"):
                        yield self.finding(
                            ctx,
                            node,
                            f"import of {alias.name!r}: use "
                            "repro.sim.randomness.DeterministicRandom",
                        )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                if module.split(".")[0] == "random" or module.endswith(".random"):
                    yield self.finding(
                        ctx,
                        node,
                        f"import from {module!r}: use "
                        "repro.sim.randomness.DeterministicRandom",
                    )


_WALL_CLOCK_TIME = (
    "time",
    "time_ns",
    "perf_counter",
    "perf_counter_ns",
    "monotonic",
    "monotonic_ns",
)
_WALL_CLOCK_DATETIME = ("now", "utcnow", "today")


class WallClockRule(DeterminismRule):
    id = "DET004"
    severity = SEVERITY_ERROR
    summary = "wall-clock read (time.time / datetime.now and friends)"

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in _WALL_CLOCK_TIME:
                        yield self.finding(
                            ctx,
                            node,
                            f"wall-clock import time.{alias.name}: simulated "
                            "time comes from Simulator.now",
                        )
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                base, attr = node.value.id, node.attr
                if (base == "time" and attr in _WALL_CLOCK_TIME) or (
                    base in ("datetime", "date")
                    and attr in _WALL_CLOCK_DATETIME
                ):
                    yield self.finding(
                        ctx,
                        node,
                        f"wall-clock read {base}.{attr}: simulated time "
                        "comes from Simulator.now",
                    )


class InterpreterIdentityRule(DeterminismRule):
    id = "DET005"
    severity = SEVERITY_ERROR
    summary = "id()/hash() call (interpreter identity as model state)"

    def check_scoped(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("id", "hash")
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{node.func.id}() is interpreter state; never key or "
                    "order simulation behaviour with it",
                )


RULES = (
    SetIterationRule(),
    DictViewSchedulingRule(),
    RandomImportRule(),
    WallClockRule(),
    InterpreterIdentityRule(),
)
