"""Multi-word tile backend: elimination-scheduled propagation (production).

The word sweep's cost is ``O(diameter x arcs x words)``, and on real
dictionary workloads the diameter term is brutal: suite vectors command
long serpentine flow paths, so a 16x16 batch needs ~250 level-synchronous
sweeps before the slowest scenario converges — and per-word convergence is
uniformly slow (median ~190), so retiring converged word columns barely
helps.  This backend removes the diameter term entirely.

At compile time the array graph (plus a virtual super-source ``S`` wired
to every pressure port) is reduced by **greedy independent-set
elimination**: each level removes a maximal independent set of
low-degree nodes and records, per removed node ``v``, the shortcut edges
``(a, b)`` its elimination induces between its neighbours, with
conduction ``open(a,v) & open(v,b)``.  Shortcuts produced within one
level target disjoint node pairs (independence), so every level is a
*static schedule* of gather / AND / ``bitwise_or.reduceat`` array ops.
Per word tile the solve is then two diameter-free passes:

* **forward** (elimination order): evaluate each level's shortcut
  conductions from the already-known edge words below it;
* **backward** (reverse order): ``reach(v) = OR over v's elimination-time
  edges (v,a) of open(v,a) & reach(a)`` — every neighbour ``a`` survives
  ``v``, so its reach words are already final; ``reach(S)`` is all-ones.

Total work is two passes over (base + fill) edges — for a 16x16 array
~2.2k edge rows instead of ~250 sweeps over 964 arcs — and the result is
bit-identical to the word sweep (pinned by the equivalence suite).  The
backward pass is additionally *restricted* to the static dependency cone
of the sink rows, the only rows a reading needs; the plan compiles that
cone once.

Each call solves its word columns as one tile:
:meth:`~repro.sim.kernel.ReachabilityKernel.batch_readings` passes at
most 32 words (2,048 scenarios), which keeps the gathered edge rows
cache-sized.
"""

from __future__ import annotations

import numpy as np

_FULL = ~np.uint64(0)


class _ElimLevel:
    """Static arrays for one elimination level (plain attrs, picklable).

    Forward (shortcut conduction) schedule::

        prod_a, prod_b : product edge-id pairs, grouped by target edge
        seg            : reduceat group starts into the product arrays
        tgt            : target edge id per group
        tgt_new        : True = fresh fill edge (assign), False = OR into
                         an edge that already existed at this level

    Backward (reach substitution) schedule — ``v``'s elimination-time
    incident edges, entries sorted by ``v``::

        bs_entry_node  : per-entry eliminated node id
        bs_nbr         : per-entry surviving neighbour node id (may be S)
        bs_edge        : per-entry edge id
        bs_seg         : reduceat group starts (one group per node)
        bs_nodes       : node id per group
    """

    __slots__ = (
        "prod_a", "prod_b", "seg", "tgt", "tgt_new",
        "bs_entry_node", "bs_nbr", "bs_edge", "bs_seg", "bs_nodes",
    )


def _group_starts(sorted_ids: np.ndarray) -> np.ndarray:
    if not len(sorted_ids):
        return np.array([], dtype=np.intp)
    return np.flatnonzero(np.r_[True, sorted_ids[1:] != sorted_ids[:-1]])


class EliminationPlan:
    """Compiled elimination schedule for one kernel's topology.

    Deterministic: nodes are eliminated in (degree, node id) order within
    each level, so the same kernel always compiles the same plan — and a
    warm-loaded kernel (same arc table) compiles an identical one.
    """

    def __init__(self, kernel) -> None:
        self.n_nodes = kernel.n_nodes
        self.source_node = kernel.n_nodes  # virtual S
        self.sink_rows = kernel._sink_rows
        self._compile(kernel)
        self.backward = self._sink_cone()

    # -- static compilation -------------------------------------------------
    def _compile(self, kernel) -> None:
        n = self.n_nodes
        S = self.source_node
        counts = np.diff(np.r_[kernel._dst_starts, len(kernel._arc_src)])
        arc_dst = np.repeat(kernel._dst_nodes, counts)

        # Undirected base edges: arcs come in (u,w)/(w,u) pairs with one
        # conduction source (valve id / blocked edge id), so keep each
        # pair once.  S-edges to the pressure sources always conduct.
        adj: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        base_valve: list[int] = []
        base_block: list[int] = []
        seen: set[tuple[int, int]] = set()

        def add_edge(a: int, b: int, vi: int, ei: int) -> None:
            eid = len(base_valve)
            base_valve.append(vi)
            base_block.append(ei)
            adj[a][b] = eid
            adj[b][a] = eid

        for u, w, vi, ei in zip(
            kernel._arc_src.tolist(), arc_dst.tolist(),
            kernel._arc_valve.tolist(), kernel._arc_edge.tolist(),
        ):
            if (w, u) in seen:
                continue
            seen.add((u, w))
            add_edge(u, w, vi, ei)
        for s in kernel._source_idx:
            add_edge(S, s, -1, -1)

        self.base_valve = np.array(base_valve, dtype=np.int64)
        self.base_block = np.array(base_block, dtype=np.int64)
        self.n_base = len(base_valve)

        total_edges = self.n_base
        levels: list[_ElimLevel] = []
        alive = set(range(n))
        while alive:
            # Maximal independent set, lowest current degree first (stable
            # tiebreak on node id) — low-degree-first bounds the fill-in.
            picked: list[int] = []
            excluded: set[int] = set()
            for v in sorted(alive, key=lambda v: (len(adj[v]), v)):
                if v in excluded:
                    continue
                picked.append(v)
                excluded.update(adj[v])

            bs_node: list[int] = []
            bs_nbr: list[int] = []
            bs_edge: list[int] = []
            pending: dict[tuple[int, int], list[tuple[int, int]]] = {}
            for v in picked:
                nbrs = sorted(adj[v].items())
                for a, ea in nbrs:
                    bs_node.append(v)
                    bs_nbr.append(a)
                    bs_edge.append(ea)
                for i in range(len(nbrs)):
                    ai, eai = nbrs[i]
                    for j in range(i + 1, len(nbrs)):
                        bj, ebj = nbrs[j]
                        key = (ai, bj) if ai < bj else (bj, ai)
                        pending.setdefault(key, []).append((eai, ebj))
                for a, _ in nbrs:
                    del adj[a][v]
                adj[v] = {}
                alive.discard(v)

            prod_a: list[int] = []
            prod_b: list[int] = []
            seg: list[int] = []
            tgt: list[int] = []
            tgt_new: list[bool] = []
            for (a, b), prods in sorted(pending.items()):
                seg.append(len(prod_a))
                for ea, eb in prods:
                    prod_a.append(ea)
                    prod_b.append(eb)
                existing = adj[a].get(b)
                if existing is None:
                    eid = total_edges
                    total_edges += 1
                    adj[a][b] = eid
                    adj[b][a] = eid
                    tgt.append(eid)
                    tgt_new.append(True)
                else:
                    tgt.append(existing)
                    tgt_new.append(False)

            lvl = _ElimLevel()
            lvl.prod_a = np.array(prod_a, dtype=np.intp)
            lvl.prod_b = np.array(prod_b, dtype=np.intp)
            lvl.seg = np.array(seg, dtype=np.intp)
            lvl.tgt = np.array(tgt, dtype=np.intp)
            lvl.tgt_new = np.array(tgt_new, dtype=bool)
            lvl.bs_entry_node = np.array(bs_node, dtype=np.intp)
            lvl.bs_nbr = np.array(bs_nbr, dtype=np.intp)
            lvl.bs_edge = np.array(bs_edge, dtype=np.intp)
            lvl.bs_seg = _group_starts(lvl.bs_entry_node)
            lvl.bs_nodes = lvl.bs_entry_node[lvl.bs_seg]
            levels.append(lvl)

        self.levels = levels
        self.total_edges = total_edges
        self.fill_edges = total_edges - self.n_base

    # -- backward-pass restriction ------------------------------------------
    def _sink_cone(self) -> list:
        """Per-level backward schedules covering the sink rows' dependency
        cone.

        ``reach(v)`` depends on the reach of ``v``'s elimination-time
        neighbours, which are eliminated strictly later (or are S), so one
        pass over the levels in elimination order closes the cone; levels
        are then filtered to needed nodes.
        """
        needed = np.zeros(self.n_nodes + 1, dtype=bool)
        needed[self.sink_rows] = True
        schedules = []
        for lvl in self.levels:
            keep = needed[lvl.bs_entry_node]
            if keep.all():
                needed[lvl.bs_nbr] = True
                schedules.append(
                    (lvl.bs_nbr, lvl.bs_edge, lvl.bs_seg, lvl.bs_nodes)
                )
                continue
            nbr = lvl.bs_nbr[keep]
            needed[nbr] = True
            entry = lvl.bs_entry_node[keep]
            seg = _group_starts(entry)
            schedules.append((nbr, lvl.bs_edge[keep], seg, entry[seg]))
        return schedules

    # -- per-tile solve ------------------------------------------------------
    def solve(
        self, valve_words: np.ndarray, blocked_words: np.ndarray | None
    ) -> np.ndarray:
        """Sink rows' reach words for one tile of word columns."""
        width = valve_words.shape[1]
        edge_open = np.empty((self.total_edges, width), dtype=np.uint64)
        has_valve = self.base_valve >= 0
        free = np.flatnonzero(~has_valve)
        gated = np.flatnonzero(has_valve)
        edge_open[free] = _FULL
        edge_open[gated] = valve_words[self.base_valve[gated]]
        if blocked_words is not None:
            blockable = np.flatnonzero(self.base_block >= 0)
            edge_open[blockable] &= ~blocked_words[self.base_block[blockable]]

        for lvl in self.levels:
            if not len(lvl.prod_a):
                continue
            products = edge_open[lvl.prod_a] & edge_open[lvl.prod_b]
            grouped = np.bitwise_or.reduceat(products, lvl.seg, axis=0)
            fresh = lvl.tgt_new
            edge_open[lvl.tgt[fresh]] = grouped[fresh]
            if not fresh.all():
                edge_open[lvl.tgt[~fresh]] |= grouped[~fresh]

        reach = np.zeros((self.n_nodes + 1, width), dtype=np.uint64)
        reach[self.source_node] = _FULL
        for nbr, edge, seg, nodes in reversed(self.backward):
            if not len(nodes):
                continue
            spread = reach[nbr] & edge_open[edge]
            reach[nodes] = np.bitwise_or.reduceat(spread, seg, axis=0)
        return reach[self.sink_rows]


class TileBackend:
    """Elimination-scheduled tiles — the production batched backend.

    It holds only the kernel and plain arrays derived from it, so a kernel
    pickled into a pool task carries its tier and compiled schedule along.
    """

    name = "tile"

    def __init__(self, kernel):
        self.kernel = kernel
        self._plan: EliminationPlan | None = None

    @property
    def plan(self) -> EliminationPlan:
        """The elimination schedule, compiled on first batched use."""
        if self._plan is None:
            self._plan = EliminationPlan(self.kernel)
        return self._plan

    def reach_words(
        self, valve_words: np.ndarray, blocked_words: np.ndarray | None
    ) -> np.ndarray:
        """The sink rows' reach words for a packed scenario batch.

        ``valve_words`` is ``(n_valves, words)`` uint64 (bit ``s`` of word
        ``w`` = valve open in scenario ``64*w + s``), ``blocked_words``
        ``(n_edges, words)`` or ``None`` for no debris.  Returns
        ``(n_sinks, words)``, rows in the kernel's sink order.  Both tiers
        share this contract, so a tier changes *how* words propagate,
        never what a scenario or a reading is.  The batch is solved as
        one tile.
        """
        return self.plan.solve(valve_words, blocked_words)
