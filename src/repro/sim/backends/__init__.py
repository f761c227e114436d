"""Kernel propagation tiers: how packed scenario words become reach words.

Both tiers answer the same question — batched reach words — against the
same compiled CSR arc table, and both are pinned bit-identical to the
object-graph reference in ``tests/oracle.py``.  What varies is the cost
model:

======  ==================================================================
name    strategy
======  ==================================================================
tile    **production** — elimination-scheduled multi-word tiles: two
        diameter-free passes over a precompiled shortcut schedule
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

from repro.sim.backends.tile import EliminationPlan, TileBackend, pick_tile_words
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
    "pick_tile_words",
    "availability",
    "default_backend",
]
