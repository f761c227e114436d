"""Fault localization by syndrome matching (dictionary diagnosis).

The paper's test flow answers "is the chip faulty?"; for a programmable
array it is also useful to know *where*, because an FPVA with a localized
defect can still run applications mapped around the bad region.  This module
implements classic dictionary diagnosis on top of the simulator: precompute
the syndrome of every single fault (optionally every fault pair) under the
generated suite, then look up observed syndromes.

Construction cost is dominated by repeated reachability simulation, and
most fault sets induce states the suite has already seen — a stuck-at-0 on
a valve a vector commands closed changes nothing, and thousands of double
faults collapse onto the same effective ``(open, blocked)`` masks.  A
kernel-engine session therefore canonicalizes every (fault set, vector)
pair to its effective-state masks, simulates each **distinct** scenario
exactly once through the compiled bitmask kernel (64 scenarios per
machine word), and assembles syndromes from the shared slot table.  An
``engine="object"`` session retains the original one-chip-at-a-time
loop; both produce identical tables (asserted by the equivalence
property test and ``benchmarks/bench_kernel.py``).

Construction also **streams**: fault sets are enumerated lazily
(:func:`iter_fault_sets`) and evaluated in bounded-size chunks, so the
double-fault universe is never materialized as one list, and — when a
:class:`~repro.store.ArtifactStore` is supplied — each chunk of detected
sets is appended to the on-disk artifact as it is produced.  A later
construction over the same (layout, suite, universe, cardinality) then
**warm-starts**: the syndrome table is loaded from the store with no
simulation at all, which is what makes 10x10-and-up double-fault
dictionaries practical for repeated serving.
"""

from __future__ import annotations

import itertools
import warnings
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.chip import ChipUnderTest
from repro.sim.faults import (
    ChannelBlocked,
    Fault,
    StuckAt0,
    StuckAt1,
    compatibility_key,
    fault_universe,
    faults_compatible,
)
from repro.sim.kernel import (
    BatchEvaluator,
    CompiledFaultSet,
    ReachabilityKernel,
    SinkCoverageError,
)
from repro.sim.tester import Tester, TestRunResult

Syndrome = tuple

#: Fault sets simulated (and, with a store, persisted) per streaming chunk.
DEFAULT_CHUNK_SIZE = 8192


def iter_fault_sets(
    universe: Sequence[Fault],
    max_cardinality: int,
    min_cardinality: int = 1,
) -> Iterator[tuple[Fault, ...]]:
    """Lazily enumerate every diagnosable fault set of the universe.

    Singles first, then compatible pairs, then compatible triples — each
    tier in :func:`itertools.combinations` order, exactly the order the
    eager builds used, but never materialized as a list (higher tiers
    grow polynomially).  Tiers are strictly ordered by cardinality, so
    the cardinality-``c`` enumeration is an exact *prefix* of the
    cardinality-``c+1`` one — the property incremental cardinality
    promotion leans on; ``min_cardinality`` starts the stream at a later
    tier (the promotion region: sets absent from a lower-cardinality
    ancestor artifact).
    """
    for cardinality in range(min_cardinality, max_cardinality + 1):
        if cardinality == 1:
            for f in universe:
                yield (f,)
        else:
            keys = _interned_keys(universe)
            for idx in itertools.combinations(range(len(universe)), cardinality):
                if _prefiltered_compatible(universe, keys, idx):
                    yield tuple(universe[i] for i in idx)


def _interned_keys(universe: Sequence[Fault]) -> list[int]:
    """Per-fault :func:`compatibility_key`, interned to small integers."""
    ids: dict = {}
    return [
        ids.setdefault(compatibility_key(f), len(ids)) for f in universe
    ]


def _prefiltered_compatible(
    universe: Sequence[Fault], keys: Sequence[int], idx: tuple[int, ...]
) -> bool:
    """Exact :func:`faults_compatible`, skipping it on distinct keys.

    Pairwise-distinct compatibility keys guarantee consistency, and
    enumeration covers cardinality <= 3, so the all-distinct test is two
    or three integer comparisons before any set machinery runs.
    """
    if len(idx) == 2:
        i, j = idx
        if keys[i] != keys[j]:
            return True
    else:
        a, b, c = idx
        if keys[a] != keys[b] and keys[a] != keys[c] and keys[b] != keys[c]:
            return True
    return faults_compatible(tuple(universe[i] for i in idx))


def _count_fault_sets(universe: Sequence[Fault], max_cardinality: int) -> int:
    """``sum(1 for _ in iter_fault_sets(...))``, in closed form.

    Singles and pairs are counted arithmetically — only colliding-key
    pairs (rare) consult :func:`faults_compatible` — so whether a stored
    ancestor covers *every* compatible set of its tiers is decidable
    without re-running the enumeration.  Triples fall back to the honest
    enumeration; cardinality-3 universes are small by construction.
    """
    n = len(universe)
    total = n
    if max_cardinality >= 2:
        total += n * (n - 1) // 2
        groups: dict[int, list[int]] = {}
        for i, key in enumerate(_interned_keys(universe)):
            groups.setdefault(key, []).append(i)
        for members in groups.values():
            for a, b in itertools.combinations(members, 2):
                if not faults_compatible((universe[a], universe[b])):
                    total -= 1
    if max_cardinality >= 3:
        total += sum(1 for _ in iter_fault_sets(universe, 3, 3))
    return total


def _next_combo(idx: tuple[int, ...], n: int) -> tuple[int, ...] | None:
    """Successor of ``idx`` in ``combinations(range(n), len(idx))`` order."""
    if len(idx) == 1:
        i = idx[0] + 1
        return (i,) if i < n else None
    if len(idx) == 2:
        i, j = idx
        if j + 1 < n:
            return (i, j + 1)
        i += 1
        return (i, i + 1) if i + 1 < n else None
    i, j, k = idx
    if k + 1 < n:
        return (i, j, k + 1)
    if j + 2 < n:
        return (i, j + 1, j + 2)
    i += 1
    return (i, i + 1, i + 2) if i + 2 < n else None


def _walk_items(
    stored: Iterable[tuple[tuple[int, ...], int]],
    n: int,
    max_cardinality: int,
    universe: Sequence[Fault],
    path,
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Pair stored artifact rows with the canonical enumeration.

    Yields ``(idx, syndrome_id)`` for stored rows and ``(idx, -1)`` for
    compatible fault sets absent from the artifact, in exact canonical
    enumeration order.  The successor function steps through *gaps only*
    — a complete tier costs one tuple comparison per stored row instead
    of a full re-enumeration — and any stored row that is not an ordered
    subsequence of the enumeration raises
    :class:`~repro.store.ArtifactCorruptionError` against ``path``.
    """
    from repro.store import ArtifactCorruptionError

    def bad() -> ArtifactCorruptionError:
        return ArtifactCorruptionError(
            path,
            "stored fault-set rows are not a subsequence of the "
            "canonical enumeration",
        )

    keys = _interned_keys(universe)
    card = 1
    expected: tuple[int, ...] | None = (0,) if n else None
    for idx, sid in stored:
        c = len(idx)
        if c < card or c > max_cardinality:
            raise bad()
        while card < c:
            while expected is not None:
                if len(expected) == 1 or _prefiltered_compatible(
                    universe, keys, expected
                ):
                    yield expected, -1
                expected = _next_combo(expected, n)
            card += 1
            expected = tuple(range(card)) if card <= n else None
        while expected != idx:
            if expected is None or expected > idx:
                raise bad()
            if len(expected) == 1 or _prefiltered_compatible(
                universe, keys, expected
            ):
                yield expected, -1
            expected = _next_combo(expected, n)
        yield idx, sid
        # Successor of the row just matched, inlined for the pair tier —
        # the hot path runs it once per stored row.
        if c == 2:
            i, j = idx
            j += 1
            if j < n:
                expected = (i, j)
            else:
                i += 1
                expected = (i, i + 1) if i + 1 < n else None
        else:
            expected = _next_combo(idx, n)
    while card <= max_cardinality:
        while expected is not None:
            if len(expected) == 1 or _prefiltered_compatible(
                universe, keys, expected
            ):
                yield expected, -1
            expected = _next_combo(expected, n)
        card += 1
        expected = tuple(range(card)) if card <= n else None


def _simple_fault_bits(
    kernel: ReachabilityKernel, universe: Sequence[Fault]
) -> dict:
    """Per-fault ``(sa0, sa1, closed_valves, blocked_edges)`` mask quads.

    Stuck-ats and blockages compose into effective masks by pure bit
    arithmetic (no leak components, no per-vector intermittent firings),
    so the incremental build's hot loop ORs these quads together instead
    of constructing a :class:`CompiledFaultSet` per fault set.  Complex
    kinds — and faults the kernel has no bit for, whose compilation must
    raise exactly as the cold build's would — map to ``None`` and take
    the compiled path.
    """
    quads: dict = {}
    valve_index = kernel.valve_index
    edge_index = kernel.edge_index
    for fault in universe:
        quad = None
        if isinstance(fault, StuckAt0):
            vi = valve_index.get(fault.valve)
            if vi is not None:
                quad = (1 << vi, 0, 0, 0)
        elif isinstance(fault, StuckAt1):
            vi = valve_index.get(fault.valve)
            if vi is not None:
                quad = (0, 1 << vi, 0, 0)
        elif isinstance(fault, ChannelBlocked):
            ei = edge_index.get(fault.edge)
            if ei is not None:
                vi = valve_index.get(fault.edge)
                quad = (0, 0, 0 if vi is None else 1 << vi, 1 << ei)
        quads[fault] = quad
    return quads


def _iter_chunks(iterable: Iterable, size: int) -> Iterator[list]:
    it = iter(iterable)
    while True:
        chunk = list(itertools.islice(it, size))
        if not chunk:
            return
        yield chunk


@dataclass
class DiagnosisReport:
    """Candidate fault sets whose syndrome matches the observation."""

    syndrome: Syndrome
    candidates: list[tuple[Fault, ...]]

    @property
    def is_unique(self) -> bool:
        return len(self.candidates) == 1

    @property
    def localized(self) -> bool:
        return bool(self.candidates)


class FaultDictionary:
    """Precomputed syndrome → fault-set dictionary.

    ``context`` binds the dictionary to an
    :class:`~repro.context.ExecutionContext`: the session's kernel, tester
    and artifact store are shared instead of re-derived, and the session's
    engine choice selects the build path.  Without one the dictionary
    resolves a private session, exactly as every other layer does.
    ``store`` (an :class:`~repro.store.ArtifactStore` or a cache-directory
    path) enables the warm-start/streaming persistence described in the
    module docstring; it may supplement a store-less context, never
    override a context's own store.  The kernel is compiled lazily, on
    first need — an object-engine build never pays for one.
    """

    def __init__(
        self,
        fpva: FPVA,
        vectors: Sequence[TestVector],
        include_control_leaks: bool = True,
        max_cardinality: int = 1,
        universe: Sequence[Fault] | None = None,
        store=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        context=None,
        base_digest: str | None = None,
        incremental: bool = True,
    ):
        if max_cardinality not in (1, 2, 3):
            raise ValueError(
                "dictionary supports fault sets of cardinality 1, 2 or 3"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
        if base_digest is not None and not incremental:
            raise ValueError("base_digest requires incremental builds")
        # Late imports: context and store sit above sim.
        from repro.context import ExecutionContext
        from repro.store import as_store

        if context is None:
            context = ExecutionContext(fpva, store=store)
            store = context.store
        else:
            context = ExecutionContext.resolve(context, fpva)
            if store is None:
                store = context.store
            elif context.store is not None:
                # Two stores is split-brain caching (kernel in one,
                # dictionary in the other); a store-less context may be
                # supplemented, a store-ful one may not be overridden.
                raise ValueError(
                    "pass either context= (with its store) or store=, "
                    "not both"
                )
        self._context = context
        self.fpva = fpva
        self.vectors = list(vectors)
        self.max_cardinality = max_cardinality
        self.chunk_size = chunk_size
        self._table: dict[Syndrome, list[tuple[Fault, ...]]] = defaultdict(list)

        if universe is None:
            universe = fault_universe(
                fpva, include_control_leaks=include_control_leaks
            )
        self.universe: list[Fault] = list(universe)

        self.store = as_store(store)
        self.digest: str | None = None
        #: True when the table came off disk instead of being simulated.
        self.warm_loaded = False
        #: How this table was obtained: ``{"mode": "warm" | "delta" |
        #: "cold", ...}`` plus per-mode detail (delta parent, reused row
        #: counts, distinct scenarios simulated) — the probe the
        #: zero-re-simulation tests and benchmarks assert against.
        self.build_stats: dict = {}
        if base_digest is not None and self.store is None:
            raise ValueError("base_digest requires an artifact store")
        if self.store is not None:
            from repro.store import dictionary_digest

            self.digest = dictionary_digest(
                fpva, self.vectors, self.universe, max_cardinality
            )
            if self.store.dictionaries.has(self.digest):
                from repro.store import ArtifactCorruptionError

                try:
                    self._table = self.store.dictionaries.load(
                        self.digest, self.universe
                    )
                except ArtifactCorruptionError as error:
                    # Quarantine the corrupt chunks and fall through to a
                    # cold build, whose writer republishes the artifact —
                    # a damaged cache heals instead of crashing diagnosis.
                    self.store.dictionaries.heal(self.digest, error)
                else:
                    self.warm_loaded = True
                    self.build_stats = {"mode": "warm"}
                    return
            if (
                incremental
                and context.batched
                and self.vectors
                and self.universe
                and self._build_delta(base_digest)
            ):
                return
        self._build()

    # -- construction ------------------------------------------------------
    def _lineage_meta(self) -> dict:
        """The artifact's lineage block (parentless; delta builds annotate
        their actual parent + delta shape over this before committing)."""
        from repro.store import layout_digest, suite_digests, universe_digest

        return {
            "layout": layout_digest(self.fpva),
            "universe": universe_digest(self.universe),
            "suite": suite_digests(self.vectors),
            "parent": None,
            "delta": None,
        }

    def _build(self) -> None:
        fault_sets = iter_fault_sets(self.universe, self.max_cardinality)
        writer = None
        if self.store is not None:
            writer = self.store.dictionaries.writer(
                self.digest,
                self.max_cardinality,
                meta={
                    "array": self.fpva.name,
                    "vectors": len(self.vectors),
                    "universe_size": len(self.universe),
                    "lineage": self._lineage_meta(),
                },
            )
            self._fault_pos = {f: i for i, f in enumerate(self.universe)}
        self.build_stats = {"mode": "cold"}
        try:
            if self._context.batched:
                scenarios = self._build_batched(fault_sets, writer)
                if scenarios is not None:
                    self.build_stats["simulated_scenarios"] = scenarios
            else:
                self._build_legacy(fault_sets, writer)
            if writer is not None:
                writer.commit()
        finally:
            if writer is not None:
                writer.abort()

    def _record(
        self, faults: tuple[Fault, ...], syndrome: Syndrome, writer
    ) -> None:
        self._table[syndrome].append(faults)
        if writer is not None:
            writer.add([self._fault_pos[f] for f in faults], syndrome)

    def _build_legacy(
        self, fault_sets: Iterable[tuple[Fault, ...]], writer=None
    ) -> None:
        """One full-suite simulation per fault set through the pure-Python
        object-graph engine (the pre-kernel reference path)."""
        tester = Tester(self.fpva, engine="object")
        for faults in fault_sets:
            syndrome = self._syndrome_of(faults, tester=tester)
            if syndrome:  # undetectable sets cannot be diagnosed
                self._record(faults, syndrome, writer)

    def _build_batched(
        self,
        fault_sets: Iterable[tuple[Fault, ...]],
        writer=None,
        evaluator: BatchEvaluator | None = None,
    ) -> int | None:
        """Canonicalize by effective state, simulate distinct states once.

        Streams: each chunk of fault sets is compiled, deduplicated,
        simulated and folded into the table (and the store, when present)
        before the next chunk is enumerated, so peak memory is bounded by
        the chunk size plus the *distinct* scenario pool — never by the
        quadratic fault-set universe.

        Returns the number of distinct scenarios simulated (the
        re-simulation probe ``build_stats`` reports), or ``None`` when
        sink coverage forced the legacy fallback.  ``evaluator`` lets the
        incremental build run its promotion region through a pre-checked
        evaluator without re-raising the coverage fallback mid-delta.
        """
        kernel = self._context.kernel
        if evaluator is None:
            try:
                evaluator = BatchEvaluator(kernel, self.vectors)
            except SinkCoverageError as exc:
                # Vectors whose expectations do not cover the array's sinks
                # cannot be compared row-wise; fall back to the reference path.
                warnings.warn(
                    f"batched dictionary build unavailable ({exc}); falling "
                    f"back to the one-chip-at-a-time legacy engine",
                    stacklevel=2,
                )
                self._build_legacy(fault_sets, writer)
                return None
        fires_cache: dict = {}
        names = [v.name for v in self.vectors]
        syndrome_cache: dict[tuple[int, ...], Syndrome] = {}
        for chunk in _iter_chunks(fault_sets, self.chunk_size):
            slot_rows = [
                evaluator.slot_row(CompiledFaultSet(kernel, faults, fires_cache))
                for faults in chunk
            ]
            evaluator.flush()
            for faults, row in zip(chunk, slot_rows):
                syndrome = syndrome_cache.get(row)
                if syndrome is None:
                    syndrome = tuple(
                        (names[vi], evaluator.observed_items(slot))
                        for vi, slot in enumerate(row)
                        if not evaluator.passed(vi, slot)
                    )
                    syndrome_cache[row] = syndrome
                if syndrome:  # undetectable sets cannot be diagnosed
                    self._record(faults, syndrome, writer)
        return evaluator.distinct_scenarios

    def _build_delta(self, base_digest: str | None) -> bool:
        """Assemble the table from a stored ancestor plus new work only.

        Resolves the most reusable stored ancestor (same layout and
        ordered universe, vector suite ⊆ ours, cardinality ≤ ours),
        carries its rows into the table while simulating only the
        genuinely *new* vectors against them, then enumerates only the
        fault sets the ancestor's cardinality tier missed.  The published
        artifact is complete and self-contained under the target digest,
        and its canonical content — table entries, interned syndrome
        order, chunk rows — is bit-identical to what a cold build of the
        same key produces (pinned by the incremental property tests).

        Returns ``False`` (with the table left empty) whenever any
        precondition fails — no ancestor, duplicate vector names, sink
        coverage, ancestor corruption — and the caller cold-builds
        exactly as before this path existed.
        """
        from repro.store import ArtifactCorruptionError, resolve_ancestor

        names = [v.name for v in self.vectors]
        position = {name: i for i, name in enumerate(names)}
        if len(position) != len(names):
            return False  # duplicate names make entry repositioning ambiguous
        lineage = self._lineage_meta()
        dicts = self.store.dictionaries
        plan = resolve_ancestor(
            dicts,
            lineage["layout"],
            lineage["universe"],
            len(self.universe),
            lineage["suite"],
            self.max_cardinality,
            base_digest=base_digest,
        )
        if plan is None:
            return False
        anc = plan.ancestor
        kernel = self._context.kernel
        try:
            evaluator = BatchEvaluator(kernel, self.vectors)
        except SinkCoverageError:
            return False  # the cold path will warn and take the legacy engine
        new_positions = plan.new_positions
        try:
            # Ancestor syndrome entries, repositioned into the target
            # suite: per syndrome id, (target position, entry) pairs.
            carried: list[list[tuple[int, tuple]]] = []
            for syndrome in dicts.load_syndromes(anc.digest):
                entries = []
                for name, items in syndrome:
                    pos = position.get(name)
                    if pos is None:
                        return False  # suite digests lied; do not guess
                    entries.append((pos, (name, items)))
                carried.append(entries)
        except ArtifactCorruptionError as error:
            dicts.heal(anc.digest, error)
            return False
        writer = dicts.writer(
            self.digest,
            self.max_cardinality,
            meta={
                "array": self.fpva.name,
                "vectors": len(self.vectors),
                "universe_size": len(self.universe),
                "lineage": lineage,
            },
        )
        self._fault_pos = {f: i for i, f in enumerate(self.universe)}
        table = self._table
        universe = self.universe
        reused = 0
        sub: BatchEvaluator | None = None
        try:
            if not new_positions:
                # Pure cardinality promotion: every ancestor row carries
                # over verbatim — zero enumeration, zero simulation for
                # the reused region.  Entries still re-sort into *our*
                # suite order, which may permute the ancestor's.
                finals = [
                    tuple(e for _, e in sorted(entries)) for entries in carried
                ]
                get = universe.__getitem__
                for idx, sid in dicts.iter_rows(anc.digest):
                    syndrome = finals[sid]
                    table[syndrome].append(tuple(map(get, idx)))
                    writer.add(idx, syndrome)
                    reused += 1
            else:
                # New columns: every set of the ancestor's tiers must be
                # re-judged (an undetected set may become detectable), but
                # only against the new vectors.  The walk pairs stored
                # rows with the canonical enumeration via a successor
                # function — gaps only, no re-enumeration — so the common
                # near-complete ancestor costs one tuple comparison per
                # stored row; absent sets surface as ``sid == -1`` items.
                sub = BatchEvaluator(
                    kernel, [self.vectors[i] for i in new_positions]
                )
                sub_slot = sub.slot
                sub_masks = sub.commanded_masks
                sub_names = sub.vector_names
                quads = _simple_fault_bits(kernel, universe)
                quads_ix = [quads[f] for f in universe]
                fires_cache: dict = {}
                # Distinct new-vector slot rows are few; memoize their
                # contribution once per row.  ``finals`` caches the
                # re-sorted carried syndrome for rows the new vectors
                # leave untouched (the common case on an append).
                new_cache: dict = {}
                finals: list[Syndrome | None] = [None] * len(carried)
                sub_passed = sub.passed
                sub_observed = sub.observed_items
                single = sub_masks[0] if len(sub_masks) == 1 else None
                items = _walk_items(
                    dicts.iter_rows(anc.digest),
                    len(universe),
                    anc.cardinality,
                    universe,
                    dicts.path_for(anc.digest),
                )
                for chunk in _iter_chunks(items, self.chunk_size):
                    slots: list = []
                    put = slots.append
                    for idx, _sid in chunk:
                        sa0 = sa1 = closed = debris = 0
                        simple = True
                        for i in idx:
                            quad = quads_ix[i]
                            if quad is None:
                                simple = False
                                break
                            sa0 |= quad[0]
                            sa1 |= quad[1]
                            closed |= quad[2]
                            debris |= quad[3]
                        if simple:
                            if single is not None:
                                put(sub_slot(
                                    ((single | sa1) & ~sa0) & ~closed,
                                    debris,
                                ))
                            else:
                                put(tuple(
                                    sub_slot(
                                        ((m | sa1) & ~sa0) & ~closed, debris
                                    )
                                    for m in sub_masks
                                ))
                        else:
                            compiled = CompiledFaultSet(
                                kernel,
                                tuple(universe[i] for i in idx),
                                fires_cache,
                            )
                            row = sub.slot_row(compiled)
                            put(row[0] if single is not None else row)
                    sub.flush()
                    get = universe.__getitem__
                    cache_get = new_cache.get
                    writer_add = writer.add
                    for (idx, sid), row in zip(chunk, slots):
                        cached = cache_get(row)
                        if cached is None:
                            if single is not None:
                                new_entries = (
                                    []
                                    if sub_passed(0, row)
                                    else [(
                                        new_positions[0],
                                        (sub_names[0], sub_observed(row)),
                                    )]
                                )
                            else:
                                # ``new_positions`` ascends with ``k``,
                                # so this is already entry-sorted.
                                new_entries = [
                                    (
                                        new_positions[k],
                                        (
                                            sub_names[k],
                                            sub_observed(slot_id),
                                        ),
                                    )
                                    for k, slot_id in enumerate(row)
                                    if not sub_passed(k, slot_id)
                                ]
                            cached = (
                                new_entries,
                                tuple(e for _, e in new_entries),
                            )
                            new_cache[row] = cached
                        if sid < 0:
                            syndrome = cached[1]
                            if not syndrome:
                                continue  # still undetected: no row
                        else:
                            reused += 1
                            if cached[0]:
                                entries = carried[sid] + cached[0]
                                entries.sort()
                                syndrome = tuple(e for _, e in entries)
                            else:
                                syndrome = finals[sid]
                                if syndrome is None:
                                    syndrome = tuple(
                                        e for _, e in sorted(carried[sid])
                                    )
                                    finals[sid] = syndrome
                        table[syndrome].append(tuple(map(get, idx)))
                        writer_add(idx, syndrome)
            return self._finish_delta(
                anc, lineage, writer, evaluator, sub, new_positions, reused
            )
        except ArtifactCorruptionError as error:
            # Mid-walk corruption: drop everything assembled so far and
            # let the cold build (over a healed store) start clean.
            self._table = defaultdict(list)
            dicts.heal(anc.digest, error)
            return False
        finally:
            writer.abort()

    def _finish_delta(
        self,
        anc,
        lineage: dict,
        writer,
        evaluator: BatchEvaluator,
        sub: BatchEvaluator | None,
        new_positions: Sequence[int],
        reused: int,
    ) -> bool:
        """Promote the missing tiers, publish, and record the stats."""
        promoted_from = self.total_fault_sets
        scenarios = 0
        if anc.cardinality < self.max_cardinality:
            scenarios = self._build_batched(
                iter_fault_sets(
                    self.universe, self.max_cardinality, anc.cardinality + 1
                ),
                writer,
                evaluator,
            ) or 0
        writer.annotate(
            lineage={
                **lineage,
                "parent": anc.digest,
                "delta": {
                    "new_vectors": len(new_positions),
                    "from_cardinality": anc.cardinality,
                    "reused_sets": reused,
                },
            }
        )
        writer.commit()
        self.build_stats = {
            "mode": "delta",
            "parent": anc.digest,
            "parent_cardinality": anc.cardinality,
            "new_vectors": len(new_positions),
            "reused_sets": reused,
            "promoted_sets": self.total_fault_sets - promoted_from,
            "simulated_scenarios": scenarios
            + (sub.distinct_scenarios if sub is not None else 0),
        }
        return True

    @property
    def tester(self) -> Tester:
        """The session's tester, constructed lazily on first use."""
        return self._context.tester

    def _syndrome_of(
        self, faults: tuple[Fault, ...], tester: Tester | None = None
    ) -> Syndrome:
        chip = ChipUnderTest(self.fpva, faults)
        return (tester or self.tester).run(chip, self.vectors).syndrome()

    @property
    def distinct_syndromes(self) -> int:
        return len(self._table)

    @property
    def total_fault_sets(self) -> int:
        """Detectable fault sets across every syndrome class."""
        return sum(len(sets) for sets in self._table.values())

    def syndrome_classes(self) -> list[tuple[Syndrome, list[tuple[Fault, ...]]]]:
        """Every (syndrome, candidate fault sets) equivalence class.

        Fault sets in one class are behaviourally indistinguishable under
        the dictionary's vector suite; the adaptive engine schedules vectors
        to separate these classes, never their members.
        """
        return [(syndrome, list(sets)) for syndrome, sets in self._table.items()]

    def diagnose_run(self, run: TestRunResult) -> DiagnosisReport:
        """Diagnose from a completed (full, non-early-stopped) test run."""
        syndrome = run.syndrome()
        return DiagnosisReport(
            syndrome=syndrome, candidates=list(self._table.get(syndrome, []))
        )

    def diagnose_chip(self, chip: ChipUnderTest) -> DiagnosisReport:
        """Apply the suite to ``chip`` and diagnose the observed syndrome."""
        return self.diagnose_run(self.tester.run(chip, self.vectors))

    def resolution(self) -> float:
        """Average number of candidates per syndrome (1.0 = perfect)."""
        if not self._table:
            return 0.0
        return sum(len(v) for v in self._table.values()) / len(self._table)
