"""R7 — fork-safety: no mutable defaults or module-level mutable state.

Worker processes import ``sim``/``fabric``/``engine``/``store`` modules
at spawn; module-level mutable containers forked (or re-imported) into
workers diverge silently between processes, and mutable default
arguments accumulate state across calls within one worker — both make
"same shard, same bytes" a lie that only shows up under ``--workers``.

Deliberate per-process state (the scenario registry, the store's
verified-digest cache) is real and stays — with an inline
``# repro: ignore[R7]`` naming the reason, so every shared-state site
is enumerable by grep.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import (
    WORKER_IMPORTED,
    FileContext,
    Finding,
    Rule,
    is_mutable_literal,
)

_EXEMPT_NAMES = {"__all__"}


class ForkSafetyRule(Rule):
    id = "R7"
    name = "fork-safety"
    severity = "warning"
    rationale = (
        "process-pool workers must not share (or resurrect) mutable "
        "module state; caches must be per-process and deliberate"
    )
    scope = WORKER_IMPORTED

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        # Mutable default arguments, anywhere in the file.
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            defaults = list(node.args.defaults) + [
                d for d in node.args.kw_defaults if d is not None
            ]
            for default in defaults:
                if is_mutable_literal(default):
                    yield ctx.finding(
                        self,
                        default,
                        f"mutable default argument on {node.name}() is "
                        f"shared across calls — default to None and "
                        f"construct inside",
                    )
        # Module-level mutable containers.
        for stmt in ctx.tree.body:
            targets: list[ast.expr] = []
            value: ast.expr | None = None
            if isinstance(stmt, ast.Assign):
                targets, value = stmt.targets, stmt.value
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets, value = [stmt.target], stmt.value
            if value is None or not is_mutable_literal(value):
                continue
            names = [
                t.id for t in targets if isinstance(t, ast.Name)
            ]
            if not names or all(n in _EXEMPT_NAMES for n in names):
                continue
            yield ctx.finding(
                self,
                stmt,
                f"module-level mutable state ({', '.join(names)}) in a "
                f"worker-imported module — make it per-process and mark "
                f"it deliberate, or move it into an object",
            )
