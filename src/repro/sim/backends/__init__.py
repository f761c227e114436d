"""Kernel backend registry: the propagation tiers behind one seam.

Every backend answers the same question — batched reach words — against
the same compiled CSR arc table, and both are pinned bit-identical to
the ``engine="object"`` reference by the equivalence suite.  What varies
is the cost model:

======  ==================================================================
name    strategy
======  ==================================================================
tile    **production** — elimination-scheduled multi-word tiles: two
        diameter-free passes over a precompiled shortcut schedule
word    reference — single-word packed reduceat sweeps (the PR-3 path;
        the baseline the ``tile`` floor is measured against)
======  ==================================================================

Production always propagates through ``tile``: a kernel attaches it on
first batched use.  Tests and the kernel benchmark attach ``word``
explicitly with :meth:`ReachabilityKernel.set_backend
<repro.sim.kernel.ReachabilityKernel.set_backend>` and hand that kernel to
a session as ``ExecutionContext(fpva, kernel=...)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.sim.backends.base import KernelBackend
from repro.sim.backends.tile import EliminationPlan, TileBackend, pick_tile_words
from repro.sim.backends.word import WordBackend

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.sim.kernel import ReachabilityKernel

#: The tier every kernel propagates through unless told otherwise.
DEFAULT_BACKEND = "tile"

# repro: ignore[R7] -- backend registry: written once at import, read-only afterwards, identical in every worker
_REGISTRY: dict[str, type[KernelBackend]] = {
    "word": WordBackend,
    "tile": TileBackend,
}


def backend_names() -> tuple[str, ...]:
    """Every registered backend name."""
    return tuple(_REGISTRY)


def availability() -> dict[str, str | None]:
    """Per-backend availability: ``None`` = runnable, else the reason not.

    Both tiers are plain numpy, so every entry is ``None``; the mapping
    stays for callers that record it in a machine profile.
    """
    return {name: None for name in _REGISTRY}


def default_backend() -> str:
    """The tier a kernel attaches when nothing selects one: ``tile``."""
    return DEFAULT_BACKEND


def create(name: str, kernel: "ReachabilityKernel") -> KernelBackend:
    """Instantiate backend ``name`` for ``kernel``; unknown names raise."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; expected one of {backend_names()}"
        ) from None
    return factory(kernel)


__all__ = [
    "KernelBackend",
    "WordBackend",
    "TileBackend",
    "EliminationPlan",
    "pick_tile_words",
    "DEFAULT_BACKEND",
    "backend_names",
    "availability",
    "default_backend",
    "create",
]
