"""The single-word packed sweep: the reference propagation tier.

One ``(n_arcs, words)`` conduction matrix, level-synchronous
``reach[dst] |= reach[src] & arc_open`` sweeps to a fixpoint via one
``np.bitwise_or.reduceat`` over the destination-sorted arc table, then
the sink rows.  Runtime is ``O(diameter x arcs x words)``: exact,
branch-free, and the reference cost model the ``tile`` floor is measured
against.  No production path runs it; tests attach it with
``kernel.backend = WordBackend(kernel)``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.sim.kernel import ReachabilityKernel

_FULL = ~np.uint64(0)


class WordBackend:
    """Destination-major reduceat sweeps over the full word block."""

    name = "word"

    def __init__(self, kernel: "ReachabilityKernel"):
        self.kernel = kernel

    def reach_words(
        self, valve_words: np.ndarray, blocked_words: np.ndarray | None
    ) -> np.ndarray:
        """:meth:`TileBackend.reach_words
        <repro.sim.backends.tile.TileBackend.reach_words>`, by sweeps to a
        fixpoint (at most graph-diameter of them)."""
        kernel = self.kernel
        words = valve_words.shape[1]
        arc_open = np.full((len(kernel._arc_src), words), _FULL, dtype=np.uint64)
        arc_open[kernel._valve_arcs] = valve_words[kernel._valve_arc_ids]
        if blocked_words is not None:
            arc_open[kernel._edge_arcs] &= ~blocked_words[kernel._edge_arc_ids]
        reach = np.zeros((kernel.n_nodes, words), dtype=np.uint64)
        if len(kernel._arc_src):
            reach[list(kernel._source_idx)] = _FULL
            src, starts, dst = kernel._arc_src, kernel._dst_starts, kernel._dst_nodes
            while True:
                spread = reach[src] & arc_open
                agg = np.bitwise_or.reduceat(spread, starts, axis=0)
                new = reach[dst] | agg
                if np.array_equal(new, reach[dst]):
                    break
                reach[dst] = new
        return reach[kernel._sink_rows]
