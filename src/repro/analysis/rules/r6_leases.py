"""R6 — lease/heartbeat files are touched only by the claim helpers.

Shard mutual exclusion rides on one primitive: ``os.link`` fails with
``EEXIST`` if the lease name already exists, so exactly one worker wins
each claim (``CampaignJournal._try_acquire``).  Any other code path
creating, rewriting, or deleting lease/heartbeat files — even
well-meaning cleanup — can hand two workers the same shard or make a
live worker look dead to the stale-lease reaper.

Two checks: ``os.link`` itself is reserved to ``fabric/journal.py``
(the only sanctioned claim site), and file operations whose target
mentions ``lease``/``heartbeat`` are reserved to ``journal.py`` and
``supervision.py`` (which owns heartbeat beacons).  ``utime`` counts as
a file operation: a beacon's mtime *is* its last beat, so touching one
elsewhere makes a dead worker look alive.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..core import FileContext, Finding, Rule, dotted_tail

_CLAIM_SITES = ("src/repro/fabric/journal.py",)
_BEACON_SITES = (
    "src/repro/fabric/journal.py",
    "src/repro/fabric/supervision.py",
)
_FILE_OPS = {
    "write_text", "write_bytes", "unlink", "remove", "touch", "open",
    "rename", "replace", "rmdir", "utime",
}


class LeaseDisciplineRule(Rule):
    id = "R6"
    name = "lease-discipline"
    severity = "error"
    rationale = (
        "hard-link lease claims guarantee exactly one winner per shard; "
        "only the claim helpers may touch lease/heartbeat files"
    )
    scope = ("src/repro/fabric/", "scripts/")

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve(node.func)
            if name == "os.link" and ctx.path not in _CLAIM_SITES:
                yield ctx.finding(
                    self,
                    node,
                    "os.link outside fabric/journal.py — lease claims go "
                    "through CampaignJournal's claim helpers only",
                )
                continue
            if ctx.path in _BEACON_SITES:
                continue
            tail = dotted_tail(node.func)
            if tail not in _FILE_OPS:
                continue
            segment = ast.get_source_segment(ctx.source, node) or ""
            lowered = segment.lower()
            if "lease" in lowered or "heartbeat" in lowered:
                yield ctx.finding(
                    self,
                    node,
                    f"direct {tail}() on a lease/heartbeat path outside the "
                    f"claim helpers — use CampaignJournal / "
                    f"SupervisionLedger APIs",
                )
