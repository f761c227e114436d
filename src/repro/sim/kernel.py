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
* Batched propagation is bit-parallel: ``reach[node]`` holds one bit per
  scenario, and a node is reached when some arc into it conducts from a
  reached node.

Single queries take the scalar path: :meth:`ReachabilityKernel.reach` is
the one BFS over the compiled adjacency, with int-mask bit tests and no
``Edge`` hashing, and :meth:`ReachabilityKernel.readings` reads the sink
flags off it.  The test generators ask their fault-free questions on
``Edge`` sets through :meth:`ReachabilityKernel.meter_readings` and
:meth:`ReachabilityKernel.pressurized_nodes`, named and typed like the
object-graph reference's in ``tests/oracle.py``.
This module is the one place a fault set becomes an effective state.
:meth:`ReachabilityKernel.fault_masks` decodes a stuck-at or blockage
fault to masks, and :class:`CompiledFaultSet` defines the fault model on
masks; :meth:`ReachabilityKernel.compile_faults` builds one for a chip,
which the :class:`~repro.sim.tester.Tester` applies vector by vector, and
:meth:`BatchEvaluator.slot_rows` applies it to many fault sets over a
suite on arrays: each stuck-at and blockage set ORs and ANDs its faults'
decoded mask words in one ``(sets x vectors x words)`` broadcast, and a
set with a control leak or an intermittent fault takes its rows from a
:class:`CompiledFaultSet`.  :class:`BatchEvaluator` interns the rows,
one sort per call, into one memo of distinct ``(open, blocked)``
scenarios, so equivalent fault sets are simulated exactly once; its
verdicts (:meth:`BatchEvaluator.detects`,
:meth:`BatchEvaluator.patterns`) compare readout codes with the suite's
expected codes on arrays.

*How* packed words propagate is the job of the kernel's
:attr:`~ReachabilityKernel.backend`, a :mod:`~repro.sim.backends` tier:
:meth:`ReachabilityKernel.row_readings` packs :data:`_CHUNK` scenarios
(32 words) per pass and the tier returns the sink rows' reach words.  The
``tile`` tier every batched reading runs through solves each pass as one
diameter-free elimination-scheduled tile, and the ``word`` reference
tier, which tests attach by assignment, sweeps level by level to a
fixpoint.  Both share this module's compiled CSR arrays and are pinned
bit-identical to the object-graph reference in ``tests/oracle.py``.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.backends import TileBackend
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

#: Scenarios :meth:`ReachabilityKernel.row_readings` packs and
#: propagates per pass: 32 words, one tile of the ``tile`` tier.
_CHUNK = 2048
_WORD_SHIFTS = np.arange(64, dtype=np.uint64)
#: Odd multiplier of :func:`_unique_rows`' row hash (the 64-bit golden ratio).
_HASH_MIX = np.uint64(0x9E3779B97F4A7C15)


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


def _row_bits(words: np.ndarray, count: int) -> np.ndarray:
    """``(n, width)`` uint64 mask rows → their ``(n, count)`` low bits."""
    return np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        axis=1,
        count=count,
        bitorder="little",
    )


def _mask_words(masks: Iterable[int], width: int) -> np.ndarray:
    """Nonnegative int masks → a ``(len, width)`` uint64 row each: bit ``i``
    of a mask is bit ``i % 64`` of word ``i // 64``."""
    size = itertools.repeat(8 * width)
    blob = b"".join(map(int.to_bytes, masks, size, itertools.repeat("little")))
    return np.frombuffer(blob, dtype=np.uint64).reshape(-1, width)


def _unique_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 2-D integer array, by one sort.

    Returns ``(first, inverse)``: ``rows[first]`` are the distinct rows in
    first-occurrence order, and ``inverse[r]`` is row ``r``'s position
    among them.  The rows are sorted on one 64-bit hash of their nonzero
    columns, so equal rows end up adjacent; should two different rows
    that share a hash meet, the batch is sorted on all its columns
    instead.  Either way the groups are exact.
    """
    n = len(rows)
    keys = rows[:, np.flatnonzero(np.bitwise_or.reduce(rows, axis=0))]
    hashes = np.zeros(n, dtype=np.uint64)
    for column in keys.T:
        hashes ^= column.astype(np.uint64, copy=False)
        hashes *= _HASH_MIX
        hashes ^= hashes >> np.uint64(29)
    order = np.argsort(hashes)
    srt = keys[order]
    head = np.ones(n, dtype=bool)
    np.any(srt[1:] != srt[:-1], axis=1, out=head[1:])
    sorted_hashes = hashes[order]
    if (head[1:] & (sorted_hashes[1:] == sorted_hashes[:-1])).any():
        order = np.lexsort(keys.T)
        srt = keys[order]
        np.any(srt[1:] != srt[:-1], axis=1, out=head[1:])
    starts = np.flatnonzero(head)
    first = np.minimum.reduceat(order, starts) if n else order
    rank = np.argsort(first)
    relabel = np.empty_like(rank)
    relabel[rank] = np.arange(len(rank), dtype=np.intp)
    inverse = np.empty(n, dtype=np.intp)
    inverse[order] = relabel[np.cumsum(head) - 1]
    return first[rank], inverse


def _index_array(index_sets) -> np.ndarray:
    """Fault sets as a ``(sets, width)`` universe-index array, each row
    padded with ``-1`` to the widest set."""
    if isinstance(index_sets, np.ndarray):
        return index_sets
    sets = [tuple(idx) for idx in index_sets]
    out = np.full((len(sets), max(map(len, sets), default=0)), -1, dtype=np.intp)
    for r, idx in enumerate(sets):
        out[r, : len(idx)] = idx
    return out


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
        # Words per open and per blocked mask in a scenario row.
        self._open_width = (self.n_valves + 63) // 64 or 1
        self._blocked_width = (self.n_edges + 63) // 64 or 1

        # Precomputed single-bit ints: valve_mask/edge_mask OR these instead
        # of shifting per element (hot on dense cut-set open sets).
        self._valve_bits = tuple(1 << i for i in range(self.n_valves))
        self._edge_bits = tuple(1 << i for i in range(self.n_edges))

        self._source_idx = tuple(index[p] for p in fpva.sources)
        self.sink_names: tuple[str, ...] = tuple(p.name for p in fpva.sinks)
        self._sink_idx = tuple(index[p] for p in fpva.sinks)
        self._sink_rows = np.array(self._sink_idx, dtype=np.intp)
        self.n_sinks = len(self.sink_names)
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

    def _valve_bit(self, valve: Edge) -> int:
        """A faulty valve's bit position; one the array lacks raises."""
        vi = self.valve_index.get(valve)
        if vi is None:
            raise ValueError(f"fault on non-existent valve {valve}")
        return vi

    def fault_masks(self, fault: Fault) -> tuple[int, int, int] | None:
        """A stuck-at or blockage fault's ``(sa1, keep, blocked)`` masks.

        ``sa1`` sets the valve held open, ``keep`` clears the valve held
        closed and ``blocked`` sets the obstructed flow edge; a set of such
        faults ORs its ``sa1`` and ``blocked`` masks, ANDs its ``keep``
        masks and opens ``(commanded | sa1) & keep``.  ``None`` for a
        control leak or an intermittent fault.  A valve or flow edge this
        kernel lacks raises :class:`ValueError`, as
        :class:`~repro.sim.chip.ChipUnderTest` does.
        """
        if isinstance(fault, StuckAt1):
            return 1 << self._valve_bit(fault.valve), -1, 0
        if isinstance(fault, StuckAt0):
            return 0, ~(1 << self._valve_bit(fault.valve)), 0
        if isinstance(fault, ChannelBlocked):
            ei = self.edge_index.get(fault.edge)
            if ei is None:
                raise ValueError(f"blockage on non-existent flow edge {fault.edge}")
            vi = self.valve_index.get(fault.edge)
            return 0, -1 if vi is None else ~(1 << vi), 1 << ei
        return None

    # -- propagation tier --------------------------------------------------
    @cached_property
    def backend(self):
        """The propagation tier, built on first batched use: ``tile``.

        Tests attach the ``word`` reference tier by assignment,
        ``kernel.backend = WordBackend(kernel)``.  A pickled kernel, and a
        kernel a session adopts, keeps the tier it carries.
        """
        return TileBackend(self)

    # -- scalar path (one scenario) ----------------------------------------
    def reach(self, open_mask: int, blocked_mask: int = 0) -> bytearray:
        """Per-node reachability flags for one scenario.

        A BFS over the compiled adjacency: iterating the frontier list
        while appending to it visits every pushed node once.
        """
        seen = bytearray(self.n_nodes)
        queue = [*self._source_idx]
        for s in queue:
            seen[s] = 1
        out = self._out
        push = queue.append
        for u in queue:
            for w, vi, ei in out[u]:
                if (
                    seen[w]
                    or (vi >= 0 and not (open_mask >> vi) & 1)
                    or (ei >= 0 and (blocked_mask >> ei) & 1)
                ):
                    continue
                seen[w] = 1
                push(w)
        return seen

    def readings(self, open_mask: int, blocked_mask: int = 0) -> dict[str, bool]:
        """Sink readings for one scenario, keyed by port name: the sink
        flags of :meth:`reach`."""
        seen = self.reach(open_mask, blocked_mask)
        return {
            name: seen[i] == 1 for name, i in zip(self.sink_names, self._sink_idx)
        }

    def meter_readings(self, open_valves: Iterable[Edge]) -> dict[str, bool]:
        """Fault-free pressure reading at every sink port, keyed by port
        name, with exactly ``open_valves`` open."""
        return self.readings(self.valve_mask(open_valves))

    def pressurized_nodes(self, open_valves: Iterable[Edge]) -> set:
        """Every cell and port node source pressure reaches, fault-free,
        with exactly ``open_valves`` open."""
        nodes = self.nodes
        seen = self.reach(self.valve_mask(open_valves))
        return {nodes[i] for i, hit in enumerate(seen) if hit}

    def compile_faults(self, faults: Sequence[Fault]) -> "CompiledFaultSet":
        """``faults`` compiled to masks, once for any number of vectors:
        ``self.readings(*compiled.effective_masks(open_mask, vector_name))``
        reads one chip under one vector."""
        return CompiledFaultSet(self, faults)

    # -- batched path (64 scenarios per word) ------------------------------
    def batch_readings(self, scenarios: Sequence[tuple[int, int]]) -> np.ndarray:
        """Sink readings for ``(open_mask, blocked_mask)`` int-mask pairs:
        :meth:`row_readings` of their scenario rows."""
        return self.row_readings(
            np.hstack((
                _mask_words((m for m, _ in scenarios), self._open_width),
                _mask_words((b for _, b in scenarios), self._blocked_width),
            ))
        )

    def row_readings(self, rows: np.ndarray) -> np.ndarray:
        """Sink readings for scenario rows.

        ``rows`` is ``(n, open words + blocked words)`` uint64: a scenario's
        open mask in the kernel's first ``ceil(n_valves / 64)`` words, its
        blocked mask in the rest, bit ``i`` of a mask in bit ``i % 64`` of
        word ``i // 64``.  Returns ``(n, n_sinks)`` bool, columns in
        :attr:`sink_names` order.  Rows are transposed into scenario words
        :data:`_CHUNK` at a time, and :attr:`backend` returns each pass's
        sink rows.
        """
        out = np.empty((len(rows), self.n_sinks), dtype=bool)
        width = self._open_width
        for lo in range(0, len(rows), _CHUNK):
            batch = np.ascontiguousarray(rows[lo : lo + _CHUNK])
            valve_words = _pack_words(_row_bits(batch[:, :width], self.n_valves))
            blocked = batch[:, width:]
            edge_words = None
            if blocked.any():
                edge_words = _pack_words(_row_bits(blocked, self.n_edges))
            # Looked up per pass, never bound once: a tracer may wrap a
            # tier's reach_words on its class after this kernel built it.
            reach = self.backend.reach_words(valve_words, edge_words)
            out[lo : lo + len(batch)] = _unpack_words(reach, len(batch))
        return out

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
    """A fault set compiled to masks: the fault model.

    Under a commanded test vector, :meth:`effective_masks` computes the
    *effective* open valves and the physically obstructed flow edges:

    1. start from the commanded states (open set; everything else closed);
    2. propagate control-layer leaks: pressurizing one leaking line closes
       its partner too — propagation is transitive across chained leaks;
    3. apply stuck-at and blockage overrides: a stuck-at-1 valve is open
       no matter what, a stuck-at-0 valve or an obstructed valve edge is
       closed no matter what (a physically broken flow channel cannot be
       re-opened by control pressure, so the closure wins over SA1 in the
       impossible event both are injected — the fault sampler forbids it);
    4. apply intermittent faults that fire on this vector (a keyed hash of
       the vector name decides, so chip behaviour is a deterministic
       function of the vector — independent of application order or
       repetition).  An intermittent fault's seat carries no other fault
       (:func:`~repro.sim.faults.faults_compatible`), so steps 3 and 4
       commute;
    5. set every obstructed flow edge, channel or valve, in the blocked
       mask for propagation to exclude.

    Each step is integer bit arithmetic on the kernel's valve and edge
    masks; steps 3 and 5 compose the
    :meth:`ReachabilityKernel.fault_masks` of the set's stuck-at and
    blockage faults, exactly as :meth:`BatchEvaluator.slot_rows` does.
    The object-level pipeline this replays, on ``Edge`` sets, is
    ``tests/oracle.effective_state``; the equivalence tests pin the two.
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
        sa1, keep, blocked = 0, -1, 0
        leak_pairs: list[tuple[Edge, Edge]] = []
        intermittent: list[tuple[int, bool, IntermittentStuckAt]] = []
        for f in self.faults:
            masks = kernel.fault_masks(f)
            if masks is not None:
                sa1 |= masks[0]
                keep &= masks[1]
                blocked |= masks[2]
            elif isinstance(f, IntermittentStuckAt):
                intermittent.append(
                    (1 << kernel._valve_bit(f.valve), f.stuck_open, f)
                )
            elif isinstance(f, ControlLeak):
                kernel._valve_bit(f.a)
                kernel._valve_bit(f.b)
                leak_pairs.append((f.a, f.b))
            else:  # pragma: no cover - exhaustive over the Fault union
                raise TypeError(f"unknown fault kind {f!r}")
        self._sa1 = sa1
        self._keep = keep
        self.blocked_mask = blocked
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
                    1 << kernel.valve_index[valve]
                )
            comp_masks = list(groups.values())
        self._leak_components = tuple(comp_masks)

    def effective_masks(
        self, commanded_mask: int, vector_key: str | None = None
    ) -> tuple[int, int]:
        """``(open, blocked)`` masks for one commanded pattern.

        The steps run in the class docstring's order: leaks, then the
        stuck-at and blockage overrides, then intermittent firings.
        ``vector_key`` names the applied vector; a set holding an
        intermittent fault cannot be evaluated without it.
        """
        eff = commanded_mask
        for comp in self._leak_components:
            if commanded_mask & comp != comp:
                eff &= ~comp
        eff = (eff | self._sa1) & self._keep
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
        return eff, self.blocked_mask


class BatchEvaluator:
    """Scenario dedup + batched evaluation over one vector suite, on arrays.

    Each distinct ``(open, blocked)`` scenario is assigned a *slot* and
    simulated exactly once.  :meth:`slot_rows` canonicalizes fault sets
    to ``(sets, vectors)`` slot arrays and registers every new scenario,
    :meth:`flush` simulates them, and the verdicts are read back on
    arrays: :meth:`detects` per set, or the observation :meth:`patterns`
    a dictionary build interns its syndromes on.

    A flushed slot keeps a *readout code*: the id of its sink readings
    among the distinct readings this evaluator has met, the suite's
    expected readings first.  A vector reads as expected exactly when its
    slot's code is its expected code.  A vector whose expectations do not
    name exactly the array's sinks fails under every scenario — the
    verdict :attr:`~repro.sim.tester.VectorOutcome.passed` gives, since
    the observed readings always name exactly the sinks — so its expected
    code is ``-1``, which no readout has.
    """

    def __init__(self, kernel: ReachabilityKernel, vectors: Sequence[TestVector]):
        self.kernel = kernel
        self.vectors = list(vectors)
        self.vector_names = tuple(v.name for v in self.vectors)
        self.commanded_masks = tuple(
            kernel.valve_mask(v.open_valves) for v in self.vectors
        )
        self._commanded = _mask_words(self.commanded_masks, kernel._open_width)
        self._sorted_sinks = tuple(
            sorted(range(kernel.n_sinks), key=lambda j: kernel.sink_names[j])
        )
        #: Scenario row bytes -> slot; slots count up in insertion order.
        self._memo: dict[bytes, int] = {}
        #: Row bytes of the slots registered since the last flush.
        self._pending: list[bytes] = []
        self._flushed = 0
        #: Readout code per flushed slot, grown geometrically.
        self._codes = np.zeros(_CHUNK, dtype=np.int32)
        #: Packed readings -> readout code (codes count up in insertion
        #: order), and per code its ``tuple(sorted(observed.items()))``.
        self._readout_ids: dict[bytes, int] = {}
        self._items: list[tuple] = []
        #: ``(intermittent fault, vector name) -> fires``, shared by every
        #: :class:`CompiledFaultSet` this evaluator compiles.
        self._fires: dict = {}
        sinks = kernel.sink_names
        complete = [
            vi for vi, v in enumerate(self.vectors) if set(v.expected) == set(sinks)
        ]
        expected = np.array(
            [[bool(self.vectors[vi].expected[s]) for s in sinks] for vi in complete],
            dtype=bool,
        ).reshape(len(complete), kernel.n_sinks)
        self._expected = np.full(len(self.vectors), -1, dtype=np.int32)
        self._expected[complete] = self._readout_codes(expected)

    @property
    def distinct_scenarios(self) -> int:
        return len(self._memo)

    @property
    def pending_scenarios(self) -> int:
        """Scenarios registered and not yet simulated by :meth:`flush`."""
        return len(self._memo) - self._flushed

    def slot(self, open_mask: int, blocked_mask: int) -> int:
        """Slot id for a scenario, registering it for the next flush."""
        kernel = self.kernel
        key = open_mask.to_bytes(8 * kernel._open_width, "little")
        key += blocked_mask.to_bytes(8 * kernel._blocked_width, "little")
        s = self._memo.get(key)
        if s is None:
            s = self._memo[key] = len(self._memo)
            self._pending.append(key)
        return s

    def slot_rows(self, universe: Sequence[Fault], index_sets) -> np.ndarray:
        """Per-vector scenario slots of each fault set
        ``[universe[i] for i in idx]``, as a ``(sets, vectors)`` array;
        every new scenario is registered for the next :meth:`flush`.

        ``index_sets`` is a sequence of index tuples, or a ``(sets,
        width)`` integer array padded with ``-1``.  This is the bulk form
        of the fault model.  Each fault of ``universe`` is decoded once
        into ``sa1``/``keep``/``blocked`` word rows
        (:meth:`ReachabilityKernel.fault_masks`; the ``-1`` padding
        indexes a neutral row), and a stuck-at or blockage set's rows are
        one broadcast over sets x vectors: a vector's open mask is
        ``(commanded | OR sa1) & AND keep``, exactly what
        :meth:`CompiledFaultSet.effective_masks` computes for such a set.
        A set holding a control leak or an intermittent fault takes its
        rows from a :class:`CompiledFaultSet`, sharing this evaluator's
        intermittent-firing cache.  All rows are then interned at once.
        """
        idx = _index_array(index_sets)
        kernel = self.kernel
        width = kernel._open_width
        decoded = [kernel.fault_masks(fault) for fault in universe]
        # keep masks clear bits of all-ones; as words, of the low words.
        low = (1 << 64 * width) - 1
        masks = [m or (0, -1, 0) for m in decoded] + [(0, -1, 0)]
        tables = [
            _mask_words((m[0] for m in masks), width),
            _mask_words((m[1] & low for m in masks), width),
            _mask_words((m[2] for m in masks), kernel._blocked_width),
        ]
        # Fold each set's faults column by column from the neutral row.
        sa1, keep, blocked = (
            np.repeat(table[-1:], len(idx), axis=0) for table in tables
        )
        for column in idx.T:
            sa1 |= tables[0][column]
            keep &= tables[1][column]
            blocked |= tables[2][column]
        rows = np.empty(
            (len(idx), len(self.vectors), width + kernel._blocked_width),
            dtype=np.uint64,
        )
        rows[:, :, :width] = (self._commanded[None] | sa1[:, None]) & keep[:, None]
        rows[:, :, width:] = blocked[:, None]
        compiled_faults = np.array([m is None for m in decoded] + [False], dtype=bool)
        compiled_sets = np.flatnonzero(compiled_faults[idx].any(axis=1))
        opens: list[int] = []
        blocks: list[int] = []
        for r in compiled_sets.tolist():
            compiled = CompiledFaultSet(
                kernel, [universe[i] for i in idx[r].tolist() if i >= 0], self._fires
            )
            opens.extend(
                compiled.effective_masks(c, name)[0]
                for c, name in zip(self.commanded_masks, self.vector_names)
            )
            blocks.append(compiled.blocked_mask)
        if blocks:
            rows[compiled_sets, :, :width] = _mask_words(opens, width).reshape(
                len(blocks), len(self.vectors), width
            )
            rows[compiled_sets, :, width:] = _mask_words(
                blocks, kernel._blocked_width
            )[:, None]
        return self._intern(rows.reshape(-1, rows.shape[2])).reshape(rows.shape[:2])

    def _intern(self, rows: np.ndarray) -> np.ndarray:
        """Slot of every scenario row: the distinct rows of the batch are
        looked up in the memo, and the new ones registered for flush."""
        first, inverse = _unique_rows(rows)
        distinct = rows[first]
        keys = distinct.view(f"V{distinct.itemsize * rows.shape[1]}").ravel().tolist()
        memo = self._memo
        start = len(memo)
        slots = np.fromiter(
            map(memo.get, keys, itertools.repeat(-1)), dtype=np.intp, count=len(keys)
        )
        fresh = np.flatnonzero(slots < 0)
        if fresh.size:
            slots[fresh] = np.arange(start, start + fresh.size, dtype=np.intp)
            fresh_keys = map(keys.__getitem__, fresh.tolist())
            memo.update(zip(fresh_keys, range(start, start + fresh.size)))
            self._pending.append(distinct[fresh].tobytes())
        return slots[inverse]

    def flush(self) -> None:
        """Simulate every pending scenario through the kernel's backend."""
        fresh = self.pending_scenarios
        if not fresh:
            return
        rows = np.frombuffer(b"".join(self._pending), dtype=np.uint64)
        self._pending = []
        codes = self._readout_codes(self.kernel.row_readings(rows.reshape(fresh, -1)))
        start, end = self._flushed, self._flushed + fresh
        if end > len(self._codes):
            grown = np.empty(max(end, 2 * len(self._codes)), dtype=np.int32)
            grown[:start] = self._codes[:start]
            self._codes = grown
        self._codes[start:end] = codes
        self._flushed = end

    def _readout_codes(self, readings: np.ndarray) -> np.ndarray:
        """The readout code of each ``(n, n_sinks)`` readings row,
        interning the readings not met before."""
        packed = np.packbits(readings, axis=1, bitorder="little")
        first, inverse = _unique_rows(packed)
        names = self.kernel.sink_names
        codes = []
        for i in first.tolist():
            key = packed[i].tobytes()
            code = self._readout_ids.get(key)
            if code is None:
                code = self._readout_ids[key] = len(self._items)
                row = readings[i].tolist()
                self._items.append(
                    tuple((names[j], row[j]) for j in self._sorted_sinks)
                )
            codes.append(code)
        return np.array(codes, dtype=np.int32)[inverse]

    def detects(self, rows) -> np.ndarray:
        """Whether each flushed slot row reads off-expectation on any
        vector: the suite detects the fault set the row was recorded for."""
        return (self._codes[np.asarray(rows)] != self._expected).any(axis=-1)

    def patterns(self, rows) -> np.ndarray:
        """Observation patterns of flushed slot rows: per vector ``-1``
        where it reads as expected, else its readout code.  Two sets with
        one pattern share one :meth:`syndrome`."""
        codes = self._codes[np.asarray(rows)]
        return np.where(codes == self._expected, -1, codes)

    def syndrome(self, pattern: Sequence[int]) -> tuple:
        """One :meth:`patterns` row's syndrome: ``(vector name, observed
        items)`` for every vector reading off-expectation, in suite
        order."""
        names, items = self.vector_names, self._items
        return tuple(
            (names[vi], items[code]) for vi, code in enumerate(pattern) if code >= 0
        )

    def failed_grid(self, vi: int, slots) -> np.ndarray:
        """Does vector ``vi`` fail under each slot?

        ``slots`` is any integer array-like of flushed slot ids; the
        result has the same shape with ``True`` where the observed
        readings differ from the vector's expectation.
        """
        return self._codes[np.asarray(slots, dtype=np.intp)] != self._expected[vi]

    def observed(self, slots) -> np.ndarray:
        """Sink readings of flushed slots, ``(..., n_sinks)`` bool in sink
        order."""
        packed = np.frombuffer(b"".join(self._readout_ids), dtype=np.uint8)
        table = np.unpackbits(
            packed.reshape(len(self._items), -1),
            axis=1,
            count=self.kernel.n_sinks,
            bitorder="little",
        ).astype(bool)
        return table[self._codes[np.asarray(slots, dtype=np.intp)]]

    def scenarios(self) -> list[tuple[int, int]]:
        """Every interned ``(open, blocked)`` mask pair, in slot order."""
        cut = 8 * self.kernel._open_width
        return [
            (int.from_bytes(key[:cut], "little"), int.from_bytes(key[cut:], "little"))
            for key in self._memo
        ]
