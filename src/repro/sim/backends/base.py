"""Backend seam: the abstract contract every kernel backend implements.

A :class:`KernelBackend` answers batched reachability for one compiled
:class:`~repro.sim.kernel.ReachabilityKernel`: :meth:`reach_words` takes
the kernel's packed scenario words (``(n_valves, W)`` /
``(n_edges, W)`` uint64, 64 scenarios per word) and returns the
``(rows, W)`` reach matrix.  This is the seam
:meth:`ReachabilityKernel.batch_readings_bool` dispatches through, so a
backend swap changes *how* words propagate, never what a scenario or a
reading is.  Single scenarios never reach a backend: the kernel answers
them with its own hoisted-buffer BFS.

Backends hold only the kernel reference plus plain arrays derived from
it, so a kernel pickled into a campaign shard payload carries its backend
(and any compiled schedule) along — workers never re-derive either.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.sim.kernel import ReachabilityKernel


class KernelBackend:
    """One propagation strategy bound to one compiled kernel."""

    #: Registry name; subclasses override.
    name = "abstract"

    def __init__(self, kernel: "ReachabilityKernel"):
        self.kernel = kernel

    def reach_words(
        self,
        valve_words: np.ndarray,
        blocked_words: np.ndarray | None,
        words: int,
        rows: np.ndarray | None = None,
        tile_words: int | None = None,
    ) -> np.ndarray:
        """Reach words for a packed scenario batch.

        ``valve_words`` is ``(n_valves, words)`` uint64 (bit ``s`` of word
        ``w`` = valve open in scenario ``64*w + s``), ``blocked_words``
        optionally ``(n_edges, words)``.  Returns ``(len(rows), words)``
        (``(n_nodes, words)`` when ``rows`` is ``None``).  ``tile_words``
        is a column-tiling hint; backends that do not tile ignore it.
        """
        raise NotImplementedError

    def describe(self) -> str:
        return f"{self.name} backend on {self.kernel!r}"

    def __repr__(self):
        return f"{type(self).__name__}({self.kernel.fpva.name!r})"
