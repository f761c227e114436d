"""R8 — numpy dtype hygiene on the bit-parallel hot path.

The reachability kernel packs test vectors into ``uint64`` words; a
``np.arange(...)`` or ``np.zeros(...)`` without an explicit ``dtype=``
defaults to ``int64``/``float64``, and one such array touching the
packed words promotes the whole expression — silently doubling memory
and breaking the bitwise identities the word-parallel backend depends
on.  On the hot path, every array constructor says its dtype out loud.

``asarray``/``ascontiguousarray`` are excluded (they preserve their
input's dtype, which is the point), as are the ``*_like`` constructors.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import HOT_PATH, FileContext, Finding, Rule, dotted_tail

_CONSTRUCTORS = {"array", "zeros", "ones", "empty", "full", "arange"}


class DtypeHygieneRule(Rule):
    id = "R8"
    name = "dtype-hygiene"
    severity = "warning"
    rationale = (
        "untyped array constructors default to int64/float64 and "
        "silently promote the uint64 bit-parallel words"
    )
    scope = HOT_PATH

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            tail = dotted_tail(node.func)
            if tail not in _CONSTRUCTORS:
                continue
            resolved = ctx.resolve(node.func)
            if not resolved.startswith("numpy."):
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            # np.full(shape, fill) infers from the fill value; a literal
            # int still lands on int64, so it is flagged like the rest.
            yield ctx.finding(
                self,
                node,
                f"{resolved}(...) without dtype= on the bit-parallel hot "
                f"path — spell the dtype explicitly (uint64 words, int64 "
                f"indices)",
            )
