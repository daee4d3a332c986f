"""Pool-safety rules (POOL001-POOL003).

``MessagePool`` shells obey an explicit ownership contract:
whoever consumes a shell releases it exactly once, at its single consumption
point, after its last read.  These rules run a small per-function dataflow
walk over that contract:

* POOL001 -- a shell acquired in the function is neither released nor
  transferred (sent, scheduled, stored, returned) on some path;
* POOL002 -- a shell is released twice on one path (both sites reported);
* POOL003 -- a release of a name the function did not acquire.  Designated
  consumption points -- handlers that release shells acquired elsewhere --
  are encoded in :data:`CONSUMPTION_POINTS`, so the allowlist *documents*
  the ownership protocol as it enforces it.

The walk is deliberately conservative about what counts as a transfer: any
use of the live name other than a plain attribute read (as a call argument,
stored into a container/attribute, aliased, returned, yielded, or captured
by a nested function) ends local ownership.  Branches of an ``if`` are
analysed separately and merged; loops are treated as running at least once;
``raise`` paths are not checked (error paths may legitimately drop shells).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.framework import SEVERITY_ERROR, FileContext, Finding, Rule

#: Function qualnames allowed to release shells they did not acquire: the
#: designated single consumption points of the ownership protocol.  Keep
#: this table in sync with the protocol docstrings it mirrors.
CONSUMPTION_POINTS = frozenset(
    {
        # TS-Snoop: data responses consume the request shell they answer.
        "TSSnoopNode._on_data_message",
        # Directory caches: forwards/invalidations/responses are consumed
        # where they are handled (deferred forwards re-enter _on_forward).
        "DirectoryCacheController._on_forward",
        "DirectoryCacheController._on_invalidate",
        "DirectoryCacheController._on_response",
        # Directory homes: requests and writeback/transfer notifications.
        "DirectoryMemoryController._on_request",
        "DirectoryMemoryController.on_writeback_data",
        "DirectoryMemoryController.on_transfer",
        # Analytical network: broadcast shells are released after the last
        # ordered handler has run.
        "AnalyticalTimestampNetwork._deliver_ordered",
    }
)

_POOLISH = re.compile(r"pool", re.IGNORECASE)


def _is_pool_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        return bool(_POOLISH.search(node.id))
    if isinstance(node, ast.Attribute):
        return bool(_POOLISH.search(node.attr))
    return False


def _pool_method_call(node: ast.AST, method: str) -> Optional[ast.Call]:
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == method
        and _is_pool_receiver(node.func.value)
    ):
        return node
    return None


@dataclass
class _Var:
    """Ownership state of one acquired name along one path."""

    status: str  # "live" | "released" | "maybe"
    acquire_line: int
    release_line: Optional[int] = None


_State = Dict[str, _Var]


def _transferred_names(node: ast.AST, live: Set[str]) -> Set[str]:
    """Live names whose ownership the expression/statement hands off."""
    transferred: Set[str] = set()

    def visit(current: ast.AST) -> None:
        for child in ast.iter_child_nodes(current):
            if isinstance(child, ast.Name) and child.id in live:
                # A bare attribute read (message.block) keeps ownership;
                # everything else -- call argument, container element,
                # assignment value, comparison is still a read though.
                if isinstance(
                    current,
                    (
                        ast.Call,
                        ast.List,
                        ast.Tuple,
                        ast.Set,
                        ast.Dict,
                        ast.Starred,
                        ast.keyword,
                        ast.Return,
                        ast.Yield,
                        ast.YieldFrom,
                        ast.Await,
                        ast.Assign,
                        ast.AnnAssign,
                        ast.AugAssign,
                    ),
                ):
                    transferred.add(child.id)
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # A closure capturing the name lets it escape.
                for inner in ast.walk(child):
                    if isinstance(inner, ast.Name) and inner.id in live:
                        transferred.add(inner.id)
                continue
            visit(child)

    visit(node)
    return transferred


class _FunctionWalker:
    """Abstract interpretation of one function body."""

    def __init__(self, rule: "PoolSafetyRule", ctx: FileContext, qualname: str) -> None:
        self.rule = rule
        self.ctx = ctx
        self.qualname = qualname
        self.findings: List[Finding] = []
        self._reported: Set[Tuple[str, int]] = set()

    # ------------------------------------------------------------- reporting
    def _report(self, rule_id: str, line: int, message: str) -> None:
        if (rule_id, line) in self._reported:
            return
        self._reported.add((rule_id, line))
        self.findings.append(
            Finding(
                rule=rule_id,
                severity=SEVERITY_ERROR,
                path=self.ctx.path,
                line=line,
                col=1,
                message=message,
            )
        )

    def _leak(self, name: str, var: _Var, where: str) -> None:
        self._report(
            "POOL001",
            var.acquire_line,
            f"{name!r} acquired here is not released or transferred "
            f"{where} in {self.qualname}",
        )

    # ------------------------------------------------------------------ walk
    def run(self, body: List[ast.stmt]) -> None:
        state = self._walk_block(body, {})
        if state is not None:
            self._check_exit(state, "on the fall-through path")

    def _check_exit(self, state: _State, where: str) -> None:
        for name, var in state.items():
            if var.status in ("live", "maybe"):
                self._leak(name, var, where)

    def _walk_block(self, stmts: List[ast.stmt], state: _State) -> Optional[_State]:
        current: Optional[_State] = state
        for stmt in stmts:
            if current is None:
                return None
            current = self._walk_stmt(stmt, current)
        return current

    def _apply_transfers(self, node: ast.AST, state: _State) -> None:
        live = {name for name, var in state.items() if var.status in ("live", "maybe")}
        if not live:
            return
        for name in _transferred_names(node, live):
            del state[name]

    def _walk_stmt(self, stmt: ast.stmt, state: _State) -> Optional[_State]:
        release = None
        if isinstance(stmt, ast.Expr):
            release = _pool_method_call(stmt.value, "release")
        if release is not None:
            self._handle_release(release, state)
            return state

        if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            value = stmt.value
            acquire = _pool_method_call(value, "acquire") if value else None
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            if (
                acquire is not None
                and len(targets) == 1
                and isinstance(targets[0], ast.Name)
            ):
                self._apply_transfers(acquire, state)
                name = targets[0].id
                old = state.get(name)
                if old is not None and old.status in ("live", "maybe"):
                    self._leak(name, old, "before being reassigned")
                state[name] = _Var("live", stmt.lineno)
                return state
            self._apply_transfers(stmt, state)
            return state

        if isinstance(stmt, ast.Return):
            self._apply_transfers(stmt, state)
            self._check_exit(state, "on this return path")
            return None

        if isinstance(stmt, ast.Raise):
            return None

        if isinstance(stmt, ast.If):
            self._apply_transfers(stmt.test, state)
            exits = []
            for branch in (stmt.body, stmt.orelse):
                exits.append(self._walk_block(branch, dict(state)))
            live_exits = [exit_ for exit_ in exits if exit_ is not None]
            if not live_exits:
                return None
            return self._merge(live_exits)

        if isinstance(stmt, (ast.For, ast.While)):
            head = stmt.iter if isinstance(stmt, ast.For) else stmt.test
            self._apply_transfers(head, state)
            body_exit = self._walk_block(stmt.body + stmt.orelse, dict(state))
            # Assume the loop runs: the body exit wins where it changed.
            return body_exit if body_exit is not None else state

        if isinstance(stmt, ast.Try):
            body_exit = self._walk_block(stmt.body, dict(state))
            exits = [] if body_exit is None else [body_exit]
            for handler in stmt.handlers:
                handler_exit = self._walk_block(handler.body, dict(state))
                if handler_exit is not None:
                    exits.append(handler_exit)
            merged = self._merge(exits) if exits else None
            if stmt.finalbody:
                base = merged if merged is not None else dict(state)
                return self._walk_block(stmt.finalbody, base)
            return merged

        if isinstance(stmt, ast.With):
            for item in stmt.items:
                self._apply_transfers(item.context_expr, state)
            return self._walk_block(stmt.body, state)

        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            # Nested scopes are analysed separately; capturing a live name
            # counts as an escape (handled by _transferred_names).
            self._apply_transfers(stmt, state)
            return state

        self._apply_transfers(stmt, state)
        return state

    def _handle_release(self, call: ast.Call, state: _State) -> None:
        if len(call.args) != 1 or not isinstance(call.args[0], ast.Name):
            return
        name = call.args[0].id
        var = state.get(name)
        if var is None:
            if self.qualname not in CONSUMPTION_POINTS:
                self._report(
                    "POOL003",
                    call.lineno,
                    f"release of {name!r}, which {self.qualname} did not "
                    "acquire; designated consumption points belong in "
                    "repro.lint.pools.CONSUMPTION_POINTS",
                )
            return
        if var.status == "released":
            self._report(
                "POOL002",
                call.lineno,
                f"double release of {name!r} (first released on line "
                f"{var.release_line}) in {self.qualname}",
            )
            return
        state[name] = _Var("released", var.acquire_line, call.lineno)

    @staticmethod
    def _merge(states: List[_State]) -> _State:
        merged: _State = {}
        names = {name for state in states for name in state}
        for name in names:
            variants = [state.get(name) for state in states]
            present = [var for var in variants if var is not None]
            statuses = {var.status for var in present}
            if len(variants) != len(present):
                # Transferred on at least one path: ownership is gone there.
                statuses.add("transferred")
            acquire_line = present[0].acquire_line
            release_line = next(
                (var.release_line for var in present if var.release_line), None
            )
            if statuses == {"released"}:
                merged[name] = _Var("released", acquire_line, release_line)
            elif statuses == {"live"}:
                merged[name] = _Var("live", acquire_line)
            elif statuses == {"transferred"}:
                continue
            elif "live" in statuses or "maybe" in statuses:
                merged[name] = _Var("maybe", acquire_line, release_line)
            # released-on-one-path / transferred-on-the-other: consumed
            # either way, drop the name.
        return merged


class PoolSafetyRule(Rule):
    """The dataflow walk; reports POOL001, POOL002 and POOL003."""

    id = "POOL001"
    severity = SEVERITY_ERROR
    summary = "pooled shell escapes without release/transfer on some path"

    @property
    def catalog(self):
        return (
            (self.id, self.severity, self.summary),
            ("POOL002", SEVERITY_ERROR, "double release of a pooled shell"),
            (
                "POOL003",
                SEVERITY_ERROR,
                "release of a name the function did not acquire "
                "(CONSUMPTION_POINTS documents the exceptions)",
            ),
        )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        qualnames = _function_qualnames(ctx.tree)
        for func, qualname in qualnames.items():
            walker = _FunctionWalker(self, ctx, qualname)
            walker.run(func.body)
            yield from walker.findings


def _function_qualnames(
    tree: ast.AST,
) -> Dict[ast.FunctionDef, str]:
    """Every function (nested included) mapped to a dotted qualname."""
    result: Dict[ast.FunctionDef, str] = {}

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}"
                result[child] = qualname
                visit(child, f"{qualname}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return result


RULES = (PoolSafetyRule(),)
