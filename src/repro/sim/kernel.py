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
:class:`FaultFold` is the fault model on arrays: it folds sets of a
decoded fault universe, every fault kind, into effective ``(open,
blocked)`` scenario rows over a suite, in one ``(sets x vectors x
words)`` buffer.  :meth:`BatchEvaluator.slot_rows` folds many sets, and
the :class:`~repro.sim.tester.Tester` one chip.  :class:`BatchEvaluator`
interns the rows, one sort per call, into one memo of distinct
``(open, blocked)`` scenarios, so equivalent fault sets are simulated
exactly once; its verdicts (:meth:`BatchEvaluator.detects`,
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
    compatibility_key,
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
    instead of re-deriving object-graph simulators per shard.  It is never
    stored: compiling is linear in the array and costs less than reading
    and checking a stored copy would, so each session compiles its own
    (:attr:`repro.context.ExecutionContext.kernel`).
    """

    def __init__(self, fpva: FPVA):
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


class FaultFold:
    """The fault model on arrays: a fault universe decoded once against a
    kernel and a vector suite into ``uint64`` words.

    Each fault decodes to an override row ``[sa1 | clear | blocked]`` (a
    stuck-at-1 sets its valve in ``sa1``; a stuck-at-0, or a blockage on
    a valve edge, sets the valve in ``clear``; a blockage sets its flow
    edge in ``blocked``), to the two valve ids of a control leak, or, for
    an intermittent fault, to per-vector ``sa1 | clear`` words from its
    row of the ``(faults x vectors)`` firing table
    (:meth:`~repro.sim.faults.IntermittentStuckAt.fires_on`).  A last,
    neutral row takes the ``-1`` padding of index sets.

    Under a commanded vector, a set's effective state is, in order:

    1. the commanded open valves, every other valve closed;
    2. control-leak closure: a pair with either valve closed closes both,
       transitively across chained leaks;
    3. the overrides, ``(open | OR sa1) & ~OR clear`` (a broken channel
       cannot be reopened by control pressure, so a closure wins over a
       stuck-at-1, a pair the fault sampler never draws);
    4. each intermittent fault that fires on the vector, as a stuck-at
       (its seat carries no other fault, so steps 3 and 4 commute);
    5. every obstructed flow edge, channel or valve, in the blocked mask.

    :meth:`rows` folds index sets into scenario rows, and :meth:`masks`
    reads one set's rows back as the int masks the scalar path takes.
    ``tests/oracle.effective_state`` is the same model on ``Edge`` sets,
    and the differential tests pin the two.  A valve or flow edge the
    kernel lacks raises :class:`ValueError`, as
    :class:`~repro.sim.chip.ChipUnderTest` does, and so does an
    intermittent fault met with an unnamed vector.
    """

    def __init__(
        self,
        kernel: ReachabilityKernel,
        universe: Sequence[Fault],
        names: Sequence[str | None],
        commanded: Sequence[int],
    ):
        self._width = w = kernel._open_width
        rows = len(universe) + 1
        overrides = [0] * rows
        ends = [(-1, -1)] * rows
        flaky: list[tuple[int, int, IntermittentStuckAt]] = []
        for i, fault in enumerate(universe):
            if isinstance(fault, StuckAt1):
                overrides[i] = 1 << kernel._valve_bit(fault.valve)
            elif isinstance(fault, StuckAt0):
                overrides[i] = 1 << (kernel._valve_bit(fault.valve) + 64 * w)
            elif isinstance(fault, ChannelBlocked):
                ei = kernel.edge_index.get(fault.edge)
                if ei is None:
                    raise ValueError(f"blockage on non-existent flow edge {fault.edge}")
                overrides[i] = 1 << (ei + 128 * w)
                vi = kernel.valve_index.get(fault.edge)
                if vi is not None:
                    overrides[i] |= 1 << (vi + 64 * w)
            elif isinstance(fault, ControlLeak):
                ends[i] = (kernel._valve_bit(fault.a), kernel._valve_bit(fault.b))
            elif isinstance(fault, IntermittentStuckAt):
                flaky.append((i, kernel._valve_bit(fault.valve), fault))
            else:  # pragma: no cover - exhaustive over the Fault union
                raise TypeError(f"unknown fault kind {fault!r}")
        self._overrides = _mask_words(overrides, 2 * w + kernel._blocked_width)
        self._commanded = _mask_words(commanded, w)
        self._ends = np.array(ends, dtype=np.intp)
        #: Per fault, whether it is a leak; None without any leak.
        self._leaky = self._ends[:, 0] >= 0 if self._ends.max() >= 0 else None
        #: Per fault, its :attr:`_firing` row (0 is neutral); None without any.
        self._flaky = None
        if flaky:
            if None in names:
                raise ValueError(
                    "chip has intermittent faults; vector identity is "
                    "required to evaluate them"
                )
            self._flaky = np.zeros(rows, dtype=np.intp)
            fires = [0] * len(names)
            for r, (i, vi, fault) in enumerate(flaky, 1):
                self._flaky[i] = r
                bit = 1 << (vi if fault.stuck_open else vi + 64 * w)
                fires += [bit if fault.fires_on(name) else 0 for name in names]
            shape = (len(flaky) + 1, len(names), 2 * w)
            self._firing = _mask_words(fires, 2 * w).reshape(shape)

    def rows(self, index_sets) -> np.ndarray:
        """Each fault set ``[universe[i] for i in idx]``'s scenario rows,
        a ``(sets, vectors, open words + blocked words)`` uint64 array.

        ``index_sets`` is a sequence of index tuples, or a ``(sets,
        width)`` integer array padded with ``-1``.  The steps fold into
        the one output buffer in place, each a broadcast over sets x
        vectors; the leak closure visits only the sets that hold a leak.
        """
        idx = _index_array(index_sets)
        w = self._width
        over = np.bitwise_or.reduce(self._overrides[idx], axis=1)
        out = np.empty(
            (len(idx), len(self._commanded), over.shape[1] - w), dtype=np.uint64
        )
        # Word by word: an op on whole rows would loop over a few words at
        # its innermost level.
        words = [out[:, :, j] for j in range(out.shape[2])]
        for j in range(w):
            words[j][...] = self._commanded[:, j]
        if self._leaky is not None:
            self._close_leaks(idx, self._leaky[idx], out[:, :, :w])
        for j in range(w):
            words[j] |= over[:, j, None]
            words[j] &= ~over[:, w + j, None]
        if self._flaky is not None:
            opened = out[:, :, :w]
            for column in self._flaky[idx].T:
                fired = self._firing[column]
                opened |= fired[:, :, :w]
                opened &= ~fired[:, :, w:]
        for j in range(w, out.shape[2]):
            words[j][...] = over[:, w + j, None]
        return out

    def _close_leaks(self, idx: np.ndarray, leaks: np.ndarray, opened: np.ndarray):
        """Step 2 on the open words, in place: a pass closes every leak
        pair with exactly one valve open, all at once.  Sets whose leaks
        share no valve settle in one pass; chained leaks pass again until
        nothing changes, at most once per leak."""
        sets, columns = np.nonzero(leaks)
        ends = self._ends[idx[sets, columns]]
        if not self._close_pairs(opened, sets, ends):
            return
        # A set's leaks chain when two of them share a valve; the other
        # faults' ends are -1.
        shared = np.sort(self._ends[idx].reshape(len(idx), -1), axis=1)
        repeats = (shared[:, 1:] == shared[:, :-1]) & (shared[:, 1:] >= 0)
        again = repeats.any(axis=1)[sets]
        sets, ends = sets[again], ends[again]
        for _ in range(1, leaks.sum(axis=1).max()):
            if not (sets.size and self._close_pairs(opened, sets, ends)):
                return

    @staticmethod
    def _close_pairs(opened: np.ndarray, sets: np.ndarray, ends: np.ndarray) -> bool:
        """One closure pass: each ``sets[i]``'s pair of valve ids
        ``ends[i]`` closes on the vectors where exactly one of the two is
        open.  Whether any pair closed."""
        sets, vectors = sets[:, None], np.arange(opened.shape[1], dtype=np.intp)
        words = ends >> 6
        bits = np.uint64(1) << (ends & 63).astype(np.uint64)
        held = [
            opened[sets, vectors, words[:, e, None]] & bits[:, e, None] for e in (0, 1)
        ]
        shut = (held[0] != 0) ^ (held[1] != 0)
        if not shut.any():
            return False
        for e in (0, 1):
            # Two leaks of one set may share a word: at applies both.
            clear = ~np.where(shut, bits[:, e, None], 0)
            np.bitwise_and.at(opened, (sets, vectors, words[:, e, None]), clear)
        return True

    def masks(self, index_set: Sequence[int]) -> list[tuple[int, int]]:
        """One fault set's ``(open, blocked)`` int masks on each vector:
        its :meth:`rows`, as the scalar path
        (:meth:`ReachabilityKernel.readings`) takes them."""
        (rows,) = self.rows(np.array([index_set], dtype=np.intp).reshape(1, -1))
        words = rows.T.tolist()
        opened = words[0]
        for w in range(1, self._width):
            opened = [low | high << 64 * w for low, high in zip(opened, words[w])]
        blocked = int.from_bytes(rows[:1, self._width :].tobytes(), "little")
        return [(mask, blocked) for mask in opened]


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

    def __init__(
        self,
        kernel: ReachabilityKernel,
        vectors: Sequence[TestVector],
        universe: Sequence[Fault] = (),
    ):
        self.kernel = kernel
        self.vectors = list(vectors)
        #: The faults :meth:`slot_rows` indexes, decoded once by the fold.
        self.universe = tuple(universe)
        self.vector_names = tuple(v.name for v in self.vectors)
        self.commanded_masks = tuple(
            kernel.valve_mask(v.open_valves) for v in self.vectors
        )
        self._fold = FaultFold(
            kernel, self.universe, self.vector_names, self.commanded_masks
        )
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

    @cached_property
    def key_ids(self) -> tuple[int, ...]:
        """Per universe fault, its :func:`~repro.sim.faults.compatibility_key`
        as an int: a set is compatible exactly when its ids are distinct."""
        ids: dict = {}
        keys = map(compatibility_key, self.universe)
        return tuple(ids.setdefault(key, len(ids)) for key in keys)

    @cached_property
    def positions(self) -> dict:
        """Universe fault -> its last index, for samplers that draw faults."""
        return {fault: i for i, fault in enumerate(self.universe)}

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

    def slot_rows(self, index_sets) -> np.ndarray:
        """Per-vector scenario slots of each fault set ``[universe[i] for
        i in idx]``, as a ``(sets, vectors)`` array; every new scenario is
        registered for the next :meth:`flush`.

        ``index_sets`` is a sequence of index tuples, or a ``(sets,
        width)`` integer array padded with ``-1``: one
        :meth:`FaultFold.rows` call, interned at once.
        """
        rows = self._fold.rows(index_sets)
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
