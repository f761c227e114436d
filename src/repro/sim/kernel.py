"""Compiled bitmask reachability kernel: batched pressure simulation.

The observation model is binary reachability on the valve-array graph, and
every downstream consumer — fault-dictionary construction, campaign sweeps,
adaptive scheduling — issues thousands-to-millions of repeated reachability
queries.  An object-graph BFS hashes :class:`~repro.fpva.geometry.Edge`
tuples on every arc of every query; this module compiles an
:class:`~repro.fpva.array.FPVA` **once** into flat integer arrays and
answers reachability for *batches* of scenarios.

Representation
==============

* Nodes (cells + ports) are numbered once; arcs are stored twice (both
  directions) in a CSR-style layout sorted by *destination* node, so one
  ``np.bitwise_or.reduceat`` aggregates every incoming frontier per node.
* A *scenario* is one effective valve state: an ``open`` bitmask over the
  array's valves plus a ``blocked`` bitmask over its flow edges (debris).
  Masks are arbitrary-precision Python ints for single queries and packed
  ``numpy`` ``uint64`` words for batches — bit ``s`` of word ``w`` belongs
  to scenario ``64*w + s``, i.e. **64 scenarios propagate per word** per
  sweep.
* Propagation is level-synchronous bit-parallel BFS: ``reach[node]`` holds
  one bit per scenario; each sweep ORs ``reach[src] & arc_open`` into every
  destination until a fixpoint (at most graph-diameter iterations).

Single queries take the scalar path (:meth:`ReachabilityKernel.readings`),
a plain BFS over the compiled arrays with int-mask bit tests — no ``Edge``
hashing, no per-call dict rebuilds, and no per-call buffer allocation (the
visited map is a hoisted scratch buffer reset in O(visited)).
:class:`CompiledFaultSet` replays
:meth:`repro.sim.chip.ChipUnderTest.effective_state` at the mask level, and
:class:`BatchEvaluator` memoizes distinct ``(open, blocked)`` scenarios so
equivalent fault sets are simulated exactly once.

*How* packed words propagate is delegated to a
:mod:`~repro.sim.backends` tier (:meth:`ReachabilityKernel.set_backend`):
the production ``tile`` backend runs diameter-free elimination-scheduled
passes, and ``word`` retains the level-synchronous reduceat sweep below
as the reference.  Both share this module's compiled CSR arrays and are
pinned bit-identical to the object-graph reference in ``tests/oracle.py``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.faults import (
    ChannelBlocked,
    ControlLeak,
    Fault,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
)

if TYPE_CHECKING:  # pragma: no cover - annotation-only dependency
    from repro.core.vectors import TestVector

_FULL_WORD = ~np.uint64(0)
_WORD_SHIFTS = np.arange(64, dtype=np.uint64)


def _pack_words(bools: np.ndarray) -> np.ndarray:
    """Pack a ``(B, K)`` bool matrix into ``(K, W)`` uint64 scenario words.

    Bit ``s`` of word ``w`` in row ``k`` is scenario ``64*w + s``'s value of
    column ``k``.  Implemented as one ``np.packbits`` over the transposed
    matrix viewed as little-endian uint64 — ~3.5x the shift-and-reduce
    formulation it replaced, and packing is on every batch's critical
    path (pinned by the pack/unpack round-trip property test).
    """
    b, k = bools.shape
    words = (b + 63) // 64
    packed = np.packbits(np.ascontiguousarray(bools.T), axis=1, bitorder="little")
    out = np.zeros((k, words * 8), dtype=np.uint8)
    out[:, : packed.shape[1]] = packed
    return out.reshape(k, words, 8).view(np.uint64).reshape(k, words)


def _unpack_words(words: np.ndarray, batch: int) -> np.ndarray:
    """Inverse of :func:`_pack_words`: ``(K, W)`` words → ``(batch, K)`` bools."""
    k = words.shape[0]
    bits = (words[:, :, None] >> _WORD_SHIFTS[None, None, :]) & np.uint64(1)
    return bits.reshape(k, -1)[:, :batch].T.astype(bool)


class ReachabilityKernel:
    """One array, compiled to flat arrays, answering batched reachability.

    The kernel is immutable, reusable and picklable (plain arrays and maps),
    so campaign runners can compile once and ship it to worker processes
    instead of re-deriving object-graph simulators per shard.
    """

    def __init__(self, fpva: FPVA):
        index = self._init_topology(fpva)

        # Every arc twice (undirected graph): (src, dst, valve id, edge id);
        # valve -1 marks always-open connections, edge -1 port openings
        # (which debris cannot block).
        arcs: list[tuple[int, int, int, int]] = []
        for edge in fpva.flow_edges:
            u, w = index[edge.a], index[edge.b]
            vi = self.valve_index.get(edge, -1)
            ei = self.edge_index[edge]
            arcs.append((u, w, vi, ei))
            arcs.append((w, u, vi, ei))
        for port in fpva.ports:
            p, c = index[port], index[fpva.port_cell(port)]
            arcs.append((p, c, -1, -1))
            arcs.append((c, p, -1, -1))
        arcs.sort(key=lambda a: a[1])  # destination-major for reduceat
        self._install_arcs(arcs)

    def _init_topology(self, fpva: FPVA) -> dict:
        """Derive the cheap node/valve/port maps from the array.

        Shared by the compiling constructor and :meth:`from_arrays`: only
        the arc tables are worth persisting, everything here is linear-time
        dictionary building.  Returns the node index map for arc assembly.
        """
        self.fpva = fpva
        self.nodes: tuple = tuple(fpva.cells()) + tuple(fpva.ports)
        index = {node: i for i, node in enumerate(self.nodes)}
        self.n_nodes = len(self.nodes)

        #: Edge → bit position maps for building scenario masks.
        self.valve_index: dict[Edge, int] = {
            v: i for i, v in enumerate(fpva.valves)
        }
        self.edge_index: dict[Edge, int] = {
            e: i for i, e in enumerate(fpva.flow_edges)
        }
        self.n_valves = len(self.valve_index)
        self.n_edges = len(self.edge_index)

        # Precomputed single-bit ints: valve_mask/edge_mask OR these instead
        # of shifting per element (hot on dense cut-set open sets).
        self._valve_bits = tuple(1 << i for i in range(self.n_valves))
        self._edge_bits = tuple(1 << i for i in range(self.n_edges))

        self._source_idx = tuple(index[p] for p in fpva.sources)
        self.sink_names: tuple[str, ...] = tuple(p.name for p in fpva.sinks)
        self._sink_rows = np.array(
            [index[p] for p in fpva.sinks], dtype=np.intp
        )
        sink_pos = [-1] * self.n_nodes
        for j, p in enumerate(fpva.sinks):
            sink_pos[index[p]] = j
        self._sink_pos = tuple(sink_pos)
        self.n_sinks = len(self.sink_names)

        #: Propagation backend (attached lazily; see :meth:`set_backend`).
        self._backend = None
        #: Scalar-path scratch: visited flags reused across queries and
        #: reset by one memset — replaces the per-call bytearray/deque
        #: allocation on size-1 workloads like adaptive diagnosis.
        self._scalar_seen = bytearray(self.n_nodes)
        self._scalar_zero = bytes(self.n_nodes)
        return index

    def _install_arcs(self, arcs: Sequence[tuple[int, int, int, int]]) -> None:
        """Install a destination-sorted arc table and its derived views."""
        self._arc_src = np.array([a[0] for a in arcs], dtype=np.intp)
        arc_dst = np.array([a[1] for a in arcs], dtype=np.intp)
        self._arc_valve = np.array([a[2] for a in arcs], dtype=np.int64)
        self._arc_edge = np.array([a[3] for a in arcs], dtype=np.int64)
        starts = np.flatnonzero(np.r_[True, arc_dst[1:] != arc_dst[:-1]])
        self._dst_starts = starts
        self._dst_nodes = arc_dst[starts]
        self._valve_arcs = np.flatnonzero(self._arc_valve >= 0)
        self._valve_arc_ids = self._arc_valve[self._valve_arcs]
        self._edge_arcs = np.flatnonzero(self._arc_edge >= 0)
        self._edge_arc_ids = self._arc_edge[self._edge_arcs]

        # Outgoing adjacency as plain tuples for the scalar (1-scenario) BFS.
        out: list[list[tuple[int, int, int]]] = [[] for _ in self.nodes]
        for u, w, vi, ei in arcs:
            out[u].append((w, vi, ei))
        self._out = tuple(tuple(lst) for lst in out)

    # -- persistence -------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The compiled arc table as flat arrays (the persisted artifact).

        Everything else the kernel carries is rebuilt from the array object
        in linear time by :meth:`from_arrays`; only the destination-sorted
        CSR arc table embodies actual compilation work.
        """
        counts = np.diff(np.r_[self._dst_starts, len(self._arc_src)])
        return {
            "arc_src": np.asarray(self._arc_src, dtype=np.int64),
            "arc_dst": np.repeat(self._dst_nodes, counts).astype(np.int64),
            "arc_valve": self._arc_valve,
            "arc_edge": self._arc_edge,
        }

    @classmethod
    def from_arrays(
        cls, fpva: FPVA, arrays: dict[str, np.ndarray]
    ) -> "ReachabilityKernel":
        """Rebuild a kernel from :meth:`to_arrays` output without compiling.

        The arc table is installed verbatim (it is already destination
        sorted), so the reconstructed kernel's arrays — and therefore every
        reading it produces — are identical to the compiled original.
        """
        self = cls.__new__(cls)
        self._init_topology(fpva)
        src = np.asarray(arrays["arc_src"]).tolist()
        dst = np.asarray(arrays["arc_dst"]).tolist()
        valve = np.asarray(arrays["arc_valve"]).tolist()
        edge = np.asarray(arrays["arc_edge"]).tolist()
        if not (len(src) == len(dst) == len(valve) == len(edge)):
            raise ValueError("inconsistent kernel arc arrays")
        if any(b < a for a, b in zip(dst, dst[1:])):
            raise ValueError(
                "kernel arc table is not destination-sorted (corrupt artifact)"
            )
        arcs = list(zip(src, dst, valve, edge))
        for u, w, vi, ei in arcs:
            if not (0 <= u < self.n_nodes and 0 <= w < self.n_nodes):
                raise ValueError("kernel arc references a non-existent node")
            if not (-1 <= vi < self.n_valves and -1 <= ei < self.n_edges):
                raise ValueError("kernel arc references a non-existent edge")
        self._install_arcs(arcs)
        return self

    # -- mask construction -------------------------------------------------
    def valve_mask(self, open_valves: Iterable[Edge]) -> int:
        """Open-valve bitmask; edges that are not valves are ignored
        (opening a permanent channel or a non-existent edge is a no-op,
        exactly as in the object-graph simulator)."""
        get = self.valve_index.get
        bits = self._valve_bits
        mask = 0
        for edge in open_valves:
            i = get(edge)
            if i is not None:
                mask |= bits[i]
        return mask

    def edge_mask(self, edges: Iterable[Edge]) -> int:
        """Blocked-edge bitmask; non-flow edges are ignored."""
        get = self.edge_index.get
        bits = self._edge_bits
        mask = 0
        for edge in edges:
            i = get(edge)
            if i is not None:
                mask |= bits[i]
        return mask

    # -- backend seam ------------------------------------------------------
    @property
    def backend(self):
        """The propagation backend: ``tile`` unless :meth:`set_backend`
        attached another tier first."""
        if self._backend is None:
            from repro.sim.backends import DEFAULT_BACKEND, create

            self._backend = create(DEFAULT_BACKEND, self)
        return self._backend

    def set_backend(self, backend) -> "ReachabilityKernel":
        """Attach a propagation backend (name or instance); returns self.

        Attaching the already-attached backend name is a no-op, so a
        compiled backend schedule is never rebuilt.  Instances must have
        been built for this kernel.
        """
        from repro.sim.backends import KernelBackend, create

        if isinstance(backend, str):
            if self._backend is None or self._backend.name != backend:
                self._backend = create(backend, self)
            return self
        if not isinstance(backend, KernelBackend):
            raise TypeError(
                f"backend must be a registry name or KernelBackend, "
                f"got {type(backend).__name__}"
            )
        if backend.kernel is not self:
            raise ValueError("backend was built for a different kernel")
        self._backend = backend
        return self

    # -- scalar path (one scenario) ----------------------------------------
    def reach(self, open_mask: int, blocked_mask: int = 0) -> bytearray:
        """Per-node reachability flags for one scenario.

        Uses the hoisted visited buffer (returning a fresh copy) and
        resets it with one C-level memset instead of re-allocating per
        query.  Iterating the frontier list while appending to it is the
        allocation-free BFS idiom: the ``for`` iterator sees pushed nodes.
        """
        seen = self._scalar_seen
        queue = [*self._source_idx]
        for s in queue:
            seen[s] = 1
        out = self._out
        push = queue.append
        if blocked_mask:
            for u in queue:
                for w, vi, ei in out[u]:
                    if seen[w]:
                        continue
                    if vi >= 0 and not (open_mask >> vi) & 1:
                        continue
                    if ei >= 0 and (blocked_mask >> ei) & 1:
                        continue
                    seen[w] = 1
                    push(w)
        else:
            for u in queue:
                for w, vi, _ in out[u]:
                    if seen[w]:
                        continue
                    if vi >= 0 and not (open_mask >> vi) & 1:
                        continue
                    seen[w] = 1
                    push(w)
        result = bytearray(seen)
        seen[:] = self._scalar_zero
        return result

    def readings(self, open_mask: int, blocked_mask: int = 0) -> dict[str, bool]:
        """Sink readings for one scenario, keyed by port name.

        Early-exits once every meter has been reached, like the reference
        BFS.  The visited buffer is the hoisted shared scratch — reset by
        one memset on the way out — and the common ``blocked_mask == 0``
        case (every stuck-at query adaptive diagnosis issues) runs a
        specialized loop without the per-arc blocked test; the
        allocation-free fast path is pinned by the scalar micro-benchmark.
        """
        n_sinks = self.n_sinks
        hits = [False] * n_sinks
        seen = self._scalar_seen
        queue = [*self._source_idx]
        for s in queue:
            seen[s] = 1
        out = self._out
        sink_pos = self._sink_pos
        found = 0
        push = queue.append
        if blocked_mask:
            for u in queue:
                for w, vi, ei in out[u]:
                    if seen[w]:
                        continue
                    if vi >= 0 and not (open_mask >> vi) & 1:
                        continue
                    if ei >= 0 and (blocked_mask >> ei) & 1:
                        continue
                    seen[w] = 1
                    sp = sink_pos[w]
                    if sp >= 0:
                        hits[sp] = True
                        found += 1
                    push(w)
                if found == n_sinks:
                    break
        else:
            for u in queue:
                for w, vi, _ in out[u]:
                    if seen[w]:
                        continue
                    if vi >= 0 and not (open_mask >> vi) & 1:
                        continue
                    seen[w] = 1
                    sp = sink_pos[w]
                    if sp >= 0:
                        hits[sp] = True
                        found += 1
                    push(w)
                if found == n_sinks:
                    break
        seen[:] = self._scalar_zero
        return dict(zip(self.sink_names, hits))

    # -- batched path (64 scenarios per word) ------------------------------
    def _propagate(self, arc_open: np.ndarray, words: int) -> np.ndarray:
        """Bit-parallel frontier propagation to a fixpoint.

        ``arc_open`` is ``(n_arcs, words)`` uint64: bit ``s`` of word ``w``
        says whether the arc conducts in scenario ``64*w + s``.  Returns the
        ``(n_nodes, words)`` reach matrix.
        """
        reach = np.zeros((self.n_nodes, words), dtype=np.uint64)
        if not len(self._arc_src):
            return reach
        reach[list(self._source_idx)] = _FULL_WORD
        src, starts, dst = self._arc_src, self._dst_starts, self._dst_nodes
        while True:
            spread = reach[src] & arc_open
            agg = np.bitwise_or.reduceat(spread, starts, axis=0)
            new = reach[dst] | agg
            if np.array_equal(new, reach[dst]):
                return reach
            reach[dst] = new

    def batch_readings_bool(
        self,
        open_bool: np.ndarray,
        blocked_bool: np.ndarray | None = None,
        tile_words: int | None = None,
    ) -> np.ndarray:
        """Sink readings for a batch of scenarios.

        ``open_bool`` is ``(B, n_valves)``; ``blocked_bool`` optionally
        ``(B, n_edges)``.  Returns ``(B, n_sinks)`` bool, columns in
        :attr:`sink_names` order.  Packing happens here; propagation is
        delegated to the attached backend, with ``tile_words`` bounding
        the per-pass word-column width for backends that tile.
        """
        batch = open_bool.shape[0]
        words = (batch + 63) // 64
        valve_words = _pack_words(open_bool)
        edge_words = None
        if blocked_bool is not None and blocked_bool.any():
            edge_words = _pack_words(blocked_bool)
        reach = self.backend.reach_words(
            valve_words,
            edge_words,
            words,
            rows=self._sink_rows,
            tile_words=tile_words,
        )
        return _unpack_words(reach, batch)

    def batch_readings(
        self,
        scenarios: Sequence[tuple[int, int]],
        chunk: int = 4096,
        tile_words: int | None = None,
    ) -> np.ndarray:
        """Sink readings for ``(open_mask, blocked_mask)`` int-mask pairs.

        Evaluates in chunks of ``chunk`` scenarios to bound the packed
        working set.  Returns ``(len(scenarios), n_sinks)`` bool.
        """
        if not scenarios:
            return np.zeros((0, self.n_sinks), dtype=bool)
        stride_v = (self.n_valves + 7) // 8 or 1
        stride_e = (self.n_edges + 7) // 8 or 1
        parts = []
        for lo in range(0, len(scenarios), chunk):
            batch = scenarios[lo : lo + chunk]
            opens = b"".join(m.to_bytes(stride_v, "little") for m, _ in batch)
            open_bool = np.unpackbits(
                np.frombuffer(opens, np.uint8).reshape(len(batch), stride_v),
                axis=1,
                bitorder="little",
                count=self.n_valves,
            ).astype(bool)
            blocked_bool = None
            if any(b for _, b in batch):
                blks = b"".join(b.to_bytes(stride_e, "little") for _, b in batch)
                blocked_bool = np.unpackbits(
                    np.frombuffer(blks, np.uint8).reshape(len(batch), stride_e),
                    axis=1,
                    bitorder="little",
                    count=self.n_edges,
                ).astype(bool)
            parts.append(
                self.batch_readings_bool(open_bool, blocked_bool, tile_words)
            )
        return np.concatenate(parts, axis=0) if len(parts) > 1 else parts[0]

    def toggled_readings(
        self, base_mask: int, valves: Sequence[Edge], set_bit: bool
    ) -> np.ndarray:
        """Sink readings for per-valve single-bit toggles of one open mask.

        Row ``i`` holds the readings of ``base_mask`` with valve ``i``'s
        bit set (``set_bit=True`` — a lone leak) or cleared (``False`` —
        a lone closure).  Edges unknown to the kernel toggle nothing, so
        their row equals the base scenario — the same no-op the
        object-graph simulator applies.  This is the shared primitive
        behind the batched observability checks (coverage SA0/SA1, cut
        wall membership): one bit-parallel batch instead of one query
        per candidate.
        """
        get = self.valve_index.get
        scenarios = []
        for valve in valves:
            vi = get(valve)
            if vi is None:
                scenarios.append((base_mask, 0))
            elif set_bit:
                scenarios.append((base_mask | (1 << vi), 0))
            else:
                scenarios.append((base_mask & ~(1 << vi), 0))
        return self.batch_readings(scenarios)

    def __repr__(self):
        return (
            f"ReachabilityKernel({self.fpva.name!r}, {self.n_nodes} nodes, "
            f"{len(self._arc_src)} arcs)"
        )


class CompiledFaultSet:
    """Mask-level replica of :meth:`ChipUnderTest.effective_state`.

    Applies the same transformation pipeline — control-leak propagation,
    stuck-at overrides, per-vector intermittent firings, blockage — as
    integer bit operations on the kernel's valve/edge masks, in the same
    order, so the resulting ``(open, blocked)`` masks encode exactly the
    frozensets :class:`~repro.sim.chip.ChipUnderTest` produces (asserted
    by the compiled-fault-set equivalence test).
    """

    def __init__(
        self,
        kernel: ReachabilityKernel,
        faults: Sequence[Fault],
        fires_cache: dict | None = None,
    ):
        self.kernel = kernel
        self.faults = tuple(faults)
        self._fires_cache = fires_cache if fires_cache is not None else {}
        vidx = kernel.valve_index
        sa0 = sa1 = blocked_valves = blocked_edges = 0
        leak_pairs: list[tuple[Edge, Edge]] = []
        intermittent: list[tuple[int, bool, IntermittentStuckAt]] = []
        for f in self.faults:
            if isinstance(f, StuckAt0):
                sa0 |= 1 << self._valve_bit(f.valve)
            elif isinstance(f, StuckAt1):
                sa1 |= 1 << self._valve_bit(f.valve)
            elif isinstance(f, IntermittentStuckAt):
                intermittent.append(
                    (1 << self._valve_bit(f.valve), f.stuck_open, f)
                )
            elif isinstance(f, ChannelBlocked):
                ei = kernel.edge_index.get(f.edge)
                if ei is None:
                    raise ValueError(
                        f"blockage on non-existent flow edge {f.edge}"
                    )
                blocked_edges |= 1 << ei
                vi = vidx.get(f.edge)
                if vi is not None:
                    blocked_valves |= 1 << vi
            elif isinstance(f, ControlLeak):
                self._valve_bit(f.a)
                self._valve_bit(f.b)
                leak_pairs.append((f.a, f.b))
            else:  # pragma: no cover - exhaustive over the Fault union
                raise TypeError(f"unknown fault kind {f!r}")
        self._sa0 = sa0
        self._sa1 = sa1
        self._blocked_valves = blocked_valves
        self.blocked_mask = blocked_edges
        self._intermittent = tuple(intermittent)

        # Control leakage spreads transitively, so a leak-graph component
        # containing any commanded-closed valve closes entirely.
        comp_masks: list[int] = []
        if leak_pairs:
            parent: dict[Edge, Edge] = {}

            def find(x: Edge) -> Edge:
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for a, b in leak_pairs:
                parent.setdefault(a, a)
                parent.setdefault(b, b)
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
            groups: dict[Edge, int] = {}
            for valve in parent:
                root = find(valve)
                groups[root] = groups.get(root, 0) | (
                    1 << vidx[valve]
                )
            comp_masks = list(groups.values())
        self._leak_components = tuple(comp_masks)

    def _valve_bit(self, valve: Edge) -> int:
        vi = self.kernel.valve_index.get(valve)
        if vi is None:
            raise ValueError(f"fault on non-existent valve {valve}")
        return vi

    def effective_masks(
        self, commanded_mask: int, vector_key: str | None = None
    ) -> tuple[int, int]:
        """``(open, blocked)`` masks for one commanded pattern.

        Mirrors :meth:`ChipUnderTest.effective_open_valves` step for step:
        leaks, then SA1, then SA0, then intermittent firings, then blockage.
        """
        eff = commanded_mask
        for comp in self._leak_components:
            if commanded_mask & comp != comp:
                eff &= ~comp
        eff = (eff | self._sa1) & ~self._sa0
        if self._intermittent:
            if vector_key is None:
                raise ValueError(
                    "chip has intermittent faults; vector identity is "
                    "required to evaluate them"
                )
            cache = self._fires_cache
            for bit, stuck_open, fault in self._intermittent:
                key = (fault, vector_key)
                fires = cache.get(key)
                if fires is None:
                    fires = cache[key] = fault.fires_on(vector_key)
                if fires:
                    eff = eff | bit if stuck_open else eff & ~bit
        eff &= ~self._blocked_valves
        return eff, self.blocked_mask


class BatchEvaluator:
    """Scenario dedup + batched evaluation over one vector suite.

    Each distinct ``(open, blocked)`` mask pair is assigned a *slot* and
    simulated exactly once; consumers record slot rows per fault set, call
    :meth:`flush`, then read verdicts back.

    A vector whose expectations do not name exactly the array's sinks
    fails under every scenario — the verdict
    :attr:`~repro.sim.tester.VectorOutcome.passed` gives, since the
    observed readings always name exactly the sinks.  Its
    :attr:`expected_rows` entry is ``None``.
    """

    def __init__(self, kernel: ReachabilityKernel, vectors: Sequence[TestVector]):
        self.kernel = kernel
        self.vectors = list(vectors)
        self.vector_names = tuple(v.name for v in self.vectors)
        self.commanded_masks = tuple(
            kernel.valve_mask(v.open_valves) for v in self.vectors
        )
        sink_set = set(kernel.sink_names)
        self.expected_rows = tuple(
            tuple(bool(v.expected[name]) for name in kernel.sink_names)
            if set(v.expected) == sink_set
            else None
            for v in self.vectors
        )
        self._sorted_sinks = tuple(
            sorted(range(kernel.n_sinks), key=lambda j: kernel.sink_names[j])
        )
        self._memo: dict[tuple[int, int], int] = {}
        self._pending: list[tuple[int, int]] = []
        self._readings: np.ndarray | None = None
        self._observed: list[tuple[bool, ...] | None] = []
        self._items: list[tuple | None] = []

    @property
    def distinct_scenarios(self) -> int:
        return len(self._memo)

    def slot(self, open_mask: int, blocked_mask: int) -> int:
        """Slot id for a scenario, registering it for the next flush."""
        key = (open_mask, blocked_mask)
        s = self._memo.get(key)
        if s is None:
            s = len(self._memo)
            self._memo[key] = s
            self._pending.append(key)
        return s

    def slot_row(self, compiled: CompiledFaultSet) -> tuple[int, ...]:
        """Per-vector scenario slots for one compiled fault set."""
        slot = self.slot
        eff = compiled.effective_masks
        return tuple(
            slot(*eff(mask, name))
            for mask, name in zip(self.commanded_masks, self.vector_names)
        )

    def flush(self) -> None:
        """Simulate every pending scenario through the kernel."""
        if not self._pending:
            return
        from repro.sim.backends import pick_tile_words

        fresh = self.kernel.batch_readings(
            self._pending, tile_words=pick_tile_words(len(self._pending))
        )
        self._pending = []
        if self._readings is None:
            self._readings = fresh
        else:
            self._readings = np.concatenate([self._readings, fresh], axis=0)
        grow = self._readings.shape[0] - len(self._observed)
        self._observed.extend([None] * grow)
        self._items.extend([None] * grow)

    def observed_row(self, slot: int) -> tuple[bool, ...]:
        """Sink readings of a slot as Python bools, in sink order."""
        row = self._observed[slot]
        if row is None:
            row = self._observed[slot] = tuple(
                bool(x) for x in self._readings[slot]
            )
        return row

    def passed(self, vi: int, slot: int) -> bool:
        """Whether vector ``vi`` reads as expected under scenario ``slot``."""
        return self.observed_row(slot) == self.expected_rows[vi]

    def failed_grid(self, vi: int, slots) -> np.ndarray:
        """Vectorized verdicts: does vector ``vi`` fail under each slot?

        ``slots`` is any integer array-like of flushed slot ids; the
        result has the same shape with ``True`` where the observed row
        differs from the vector's expectation.  Equivalent to mapping
        ``not passed(vi, slot)`` but without a Python call per slot.
        """
        grid = np.asarray(slots, dtype=np.intp)
        if self.expected_rows[vi] is None:
            return np.ones(grid.shape, dtype=bool)
        expected = np.array(self.expected_rows[vi], dtype=bool)
        return (self._readings[grid] != expected).any(axis=-1)

    def observed_items(self, slot: int) -> tuple:
        """``tuple(sorted(observed.items()))`` — the syndrome signature."""
        items = self._items[slot]
        if items is None:
            row = self.observed_row(slot)
            names = self.kernel.sink_names
            items = self._items[slot] = tuple(
                (names[j], row[j]) for j in self._sorted_sinks
            )
        return items
