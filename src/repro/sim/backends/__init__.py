"""Kernel propagation tiers: how packed scenario words become reach words.

Both tiers answer the same question — the sink rows' reach words for one
packed batch, ``reach_words(valve_words, blocked_words)`` — against the
same compiled CSR arc table, and both are pinned bit-identical to the
object-graph reference in ``tests/oracle.py``.  What varies is the cost
model:

======  ==================================================================
name    strategy
======  ==================================================================
tile    **production** — one elimination-scheduled tile of up to 32
        words per batch: two diameter-free passes over a precompiled
        shortcut schedule
word    reference — single-word packed reduceat sweeps, the baseline
        the ``tile`` floor is measured against
======  ==================================================================

Production always propagates through ``tile``: a kernel builds its
:class:`TileBackend` on first batched use.  Tests and the kernel
benchmark attach ``word`` by assignment, ``kernel.backend =
WordBackend(kernel)``, and hand that kernel to a session as
``ExecutionContext(fpva, kernel=...)``.
"""

from __future__ import annotations

from repro.sim.backends.tile import EliminationPlan, TileBackend
from repro.sim.backends.word import WordBackend


def availability() -> dict[str, str | None]:
    """Per-tier availability: ``None`` = runnable, else the reason not.

    Both tiers are plain numpy, so every entry is ``None``; the mapping
    stays for callers that record it in a machine profile.
    """
    return {"word": None, "tile": None}


def default_backend() -> str:
    """The tier every kernel propagates through: ``tile``."""
    return TileBackend.name


__all__ = [
    "WordBackend",
    "TileBackend",
    "EliminationPlan",
    "availability",
    "default_backend",
]
