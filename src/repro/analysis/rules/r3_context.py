"""R3 — testers and kernels are built by the session layer.

``ExecutionContext`` guarantees exactly one kernel compile per session
and one shared tester; a private ``ReachabilityKernel(fpva)`` in caller
code silently duplicates that work and — worse — bypasses the kernel
store's warm-load/heal path, so the caller's kernel never benefits from
(or exercises) artifact integrity checking.  ``Tester(fpva)`` compiles
a private kernel the same way.

Construction is allowed only where it is the point: ``context.py``
itself and the ``sim/`` package that defines these types.  Everyone
else accepts ``context=``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import SESSION_FACTORIES, FileContext, Finding, Rule, dotted_tail, in_any

_SESSION_TYPES = {"ReachabilityKernel", "Tester"}


class ContextDisciplineRule(Rule):
    id = "R3"
    name = "session-discipline"
    severity = "error"
    rationale = (
        "exactly-one-kernel-compile and warm-load healing only hold when "
        "testers and kernels are built via ExecutionContext"
    )

    def applies_to(self, path: str) -> bool:
        return not in_any(path, SESSION_FACTORIES)

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_tail(node.func)
            if tail in _SESSION_TYPES:
                yield ctx.finding(
                    self,
                    node,
                    f"private {tail}(...) construction outside the session "
                    f"layer — accept context= and use "
                    f"ExecutionContext.kernel/.tester",
                )
