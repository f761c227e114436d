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
faults collapse onto the same effective ``(open, blocked)`` masks.  The
build therefore runs on arrays, a chunk of fault sets at a time: it
canonicalizes every (fault set, vector) pair to its effective-state
masks in one broadcast (:meth:`BatchEvaluator.slot_rows
<repro.sim.kernel.BatchEvaluator.slot_rows>`), simulates each
**distinct** scenario exactly once through the compiled bitmask kernel
(64 scenarios per machine word), reads each set's observation pattern
(:meth:`~repro.sim.kernel.BatchEvaluator.patterns`) and assembles one
syndrome per distinct pattern.  The tables equal the
one-chip-at-a-time reference build in ``tests/oracle.py`` (asserted by
the equivalence property tests and ``benchmarks/bench_kernel.py``).

Every build is **one pass** over canonical ``(universe indices, stored
syndrome id)`` rows, starting from the nearest stored ancestor (see
:mod:`repro.store.lineage`) or, for a cold build, from the empty one: a
set in a tier the ancestor holds is judged only on the vectors it lacks,
and every other set on every vector.  Suite appends, cardinality
promotions and both at once therefore publish exactly the artifact a
cold build of the same key would, so a build with a store always looks
for an ancestor; one without a store, or with no ancestor stored, is
cold.  The sets are enumerated on interned
:func:`~repro.sim.faults.compatibility_key` values alone: a set is
diagnosable exactly when no two of its faults share a key.

Construction also **streams**: fault sets are enumerated lazily, as
index blocks (:func:`iter_fault_sets` and the build share one
enumerator), and evaluated in bounded-size chunks, so the double-fault
universe is never
materialized as one list, and — when a
:class:`~repro.store.ArtifactStore` is supplied — each chunk of detected
sets is appended to the on-disk artifact as it is produced.  A later
construction over the same (layout, suite, universe, cardinality) then
**warm-starts**: the syndrome table is loaded from the store with no
simulation at all, which is what makes 10x10-and-up double-fault
dictionaries practical for repeated serving.
"""

from __future__ import annotations

import contextlib
import gc
from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.chip import ChipUnderTest
from repro.sim.faults import Fault, compatibility_key, fault_universe
from repro.sim.kernel import BatchEvaluator
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
    tier in :func:`itertools.combinations` order, never materialized as
    a list (higher tiers grow polynomially).  Tiers are strictly ordered
    by cardinality, so the cardinality-``c`` enumeration is an exact
    *prefix* of the cardinality-``c+1`` one — the property incremental
    cardinality promotion leans on; ``min_cardinality`` starts the
    stream at a later tier.  The sets are :func:`_index_blocks` mapped
    onto the universe, the same enumeration the dictionary build walks.
    """
    get = universe.__getitem__
    for block in _index_blocks(universe, max_cardinality, min_cardinality):
        yield from zip(*(map(get, column) for column in block.T.tolist()))


def _index_blocks(
    universe: Sequence[Fault], max_cardinality: int, min_cardinality: int = 1
) -> Iterator[np.ndarray]:
    """Universe-index rows of every diagnosable fault set, in canonical
    order, as ``(sets, cardinality)`` blocks: the one enumerator behind
    :func:`iter_fault_sets` and the dictionary build.

    A set is compatible exactly when its faults'
    :func:`compatibility_key` values are pairwise distinct, so the sets
    are chosen on interned keys alone: a block holds the pairs or the
    triples of one first fault.
    """
    n = len(universe)
    ids: dict = {}
    keys = np.array(
        [ids.setdefault(compatibility_key(f), len(ids)) for f in universe],
        dtype=np.intp,
    )
    for cardinality in range(min_cardinality, max_cardinality + 1):
        if cardinality == 1:
            yield np.arange(n, dtype=np.intp)[:, None]
        elif cardinality == 2:
            for i in range(n):
                j = np.flatnonzero(keys[i + 1 :] != keys[i]) + (i + 1)
                yield np.column_stack((np.full_like(j, i), j))
        else:
            for i in range(n):
                rest = np.flatnonzero(keys[i + 1 :] != keys[i]) + (i + 1)
                first, second = np.triu_indices(len(rest), 1)
                j, k = rest[first], rest[second]
                keep = keys[j] != keys[k]
                yield np.column_stack((np.full_like(j[keep], i), j[keep], k[keep]))


def _chunked(blocks: Iterable[np.ndarray], size: int) -> Iterator[np.ndarray]:
    """Re-cut index blocks into chunks of ``size`` sets (the last may be
    shorter), each padded with ``-1`` to its widest set."""
    parts: list[np.ndarray] = []
    count = 0
    for block in blocks:
        while len(block):
            take = block[: size - count]
            block = block[len(take) :]
            parts.append(take)
            count += len(take)
            if count == size:
                yield _stacked(parts)
                parts, count = [], 0
    if parts:
        yield _stacked(parts)


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    width = max(part.shape[1] for part in parts)
    out = np.full((sum(map(len, parts)), width), -1, dtype=np.intp)
    row = 0
    for part in parts:
        out[row : row + len(part), : part.shape[1]] = part
        row += len(part)
    return out


def _canonical_keys(sets: np.ndarray, base: int) -> np.ndarray:
    """One int64 per ``-1``-padded index row, increasing along the
    canonical enumeration: the cardinality, then the indices, as digits
    in base ``len(universe) + 1`` (exact below 2**20 faults)."""
    keys = (sets >= 0).sum(axis=1, dtype=np.int64)
    for k in range(3):
        keys = keys * base + (sets[:, k] + 1 if k < sets.shape[1] else 0)
    return keys


def _held_chunks(
    stored: Iterable[tuple[np.ndarray, np.ndarray]],
    universe: Sequence[Fault],
    held: int,
    size: int,
    path,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sets of an ancestor's ``held`` tiers, with its stored rows merged in.

    Yields ``(sets, ids)`` chunks in canonical enumeration order: ``ids``
    holds each set's stored syndrome id, or ``-1`` for a set the ancestor
    holds no row for (it went undetected).  ``stored`` yields the
    ancestor's ``(rows, ids)`` chunks.  Stored rows that are not an
    ordered subsequence of the enumeration raise
    :class:`~repro.store.ArtifactCorruptionError` against ``path``.
    """
    from repro.store import ArtifactCorruptionError

    def corrupt():
        return ArtifactCorruptionError(
            path,
            "stored fault-set rows are not a subsequence of the "
            "canonical enumeration",
        )

    base = len(universe) + 1
    chunks = iter(stored)
    keys = np.zeros(0, dtype=np.int64)  # stored rows read, not yet merged
    ids = np.zeros(0, dtype=np.intp)
    last = -1
    for sets in _chunked(_index_blocks(universe, held), size):
        enumerated = _canonical_keys(sets, base)
        top = enumerated[-1]
        while not len(keys) or keys[-1] <= top:
            chunk = next(chunks, None)
            if chunk is None:
                break
            more = _canonical_keys(chunk[0], base)
            if len(more) and (more[0] <= last or (np.diff(more) <= 0).any()):
                raise corrupt()
            last = more[-1] if len(more) else last
            keys = np.concatenate((keys, more))
            ids = np.concatenate((ids, chunk[1]))
        take = np.searchsorted(keys, top, side="right")
        at = np.searchsorted(enumerated, keys[:take])
        if (enumerated[at] != keys[:take]).any():
            raise corrupt()
        found = np.full(len(sets), -1, dtype=np.intp)
        found[at] = ids[:take]
        keys, ids = keys[take:], ids[take:]
        yield sets, found
    if len(keys) or next(chunks, None) is not None:
        raise corrupt()


@contextlib.contextmanager
def _collector_paused() -> Iterator[None]:
    """Run one dictionary build with the cyclic garbage collector paused,
    then collect once.

    A build allocates a few tuples per fault set and keeps most of them
    (the table holds every detected set), so a running collector keeps
    re-scanning the growing heap: four or five full collections in a
    10x10 card-2 append build, ~40% of its time.  Paused, the build pays
    one full collection at its end instead, and leaves no collection debt
    to whatever runs next.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        gc.collect()


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


@dataclass(frozen=True)
class _Ancestor:
    """Where a dictionary build starts: a stored artifact, or nothing."""

    #: The stored artifact's digest; ``None`` for the empty ancestor.
    digest: str | None
    #: Its cardinality: tiers ``1..cardinality`` are held.
    cardinality: int
    #: Target-suite positions of the vectors it lacks.
    lacking: tuple[int, ...]
    #: Per stored syndrome id, its ``(target position, entry)`` pairs,
    #: sorted by position.
    carried: tuple


class FaultDictionary:
    """Precomputed syndrome → fault-set dictionary.

    ``context`` binds the dictionary to an
    :class:`~repro.context.ExecutionContext`: the session's kernel, tester
    and artifact store are shared instead of re-derived.  Without one the
    dictionary resolves a private session, exactly as every other layer
    does.  ``universe`` is the ordered faults the table models; ``None``
    is the paper's stuck-at/control-leak space
    (:func:`~repro.sim.faults.fault_universe`).  ``store`` (an
    :class:`~repro.store.ArtifactStore` or a cache-directory path)
    enables the warm-start/streaming persistence described in the module
    docstring; it may supplement a store-less context, never override a
    context's own store.  The kernel is compiled lazily, on first need.
    """

    def __init__(
        self,
        fpva: FPVA,
        vectors: Sequence[TestVector],
        max_cardinality: int = 1,
        universe: Sequence[Fault] | None = None,
        store=None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        context=None,
        base_digest: str | None = None,
    ):
        if max_cardinality not in (1, 2, 3):
            raise ValueError(
                "dictionary supports fault sets of cardinality 1, 2 or 3"
            )
        if chunk_size < 1:
            raise ValueError("chunk_size must be positive")
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
            universe = fault_universe(fpva)
        self.universe: list[Fault] = list(universe)

        self.store = as_store(store)
        self.digest: str | None = None
        #: How this table was obtained: ``{"mode": "warm" | "delta" |
        #: "cold", ...}`` plus per-mode detail (delta parent, reused row
        #: counts, distinct scenarios simulated) — the probe the
        #: zero-re-simulation tests and benchmarks assert against.
        self.build_stats: dict = {}
        if base_digest is not None and self.store is None:
            raise ValueError("base_digest requires an artifact store")
        lineage = None
        if self.store is not None:
            from repro.store import ArtifactCorruptionError, dictionary_digest

            self.digest = dictionary_digest(
                fpva, self.vectors, self.universe, max_cardinality
            )
            if self.store.dictionaries.has(self.digest):
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
                    self.build_stats = {"mode": "warm"}
                    return
            lineage = self._lineage_meta()
            if self.vectors and self.universe:
                start = self._ancestor(lineage, base_digest)
                if start is not None:
                    try:
                        self._build(start, lineage)
                        return
                    except ArtifactCorruptionError as error:
                        # Mid-walk corruption: drop everything assembled
                        # so far and start again from the empty ancestor,
                        # over a healed store.
                        self._table = defaultdict(list)
                        self.store.dictionaries.heal(start.digest, error)
        self._build(
            _Ancestor(None, 0, tuple(range(len(self.vectors))), ()), lineage
        )

    # -- construction ------------------------------------------------------
    def _lineage_meta(self) -> dict:
        """The artifact's lineage block (parentless; a build from a stored
        ancestor annotates its parent + delta shape over this)."""
        from repro.store import layout_digest, suite_digests, universe_digest

        return {
            "layout": layout_digest(self.fpva),
            "universe": universe_digest(self.universe),
            "suite": suite_digests(self.vectors),
            "parent": None,
            "delta": None,
        }

    def _ancestor(
        self, lineage: dict, base_digest: str | None
    ) -> "_Ancestor | None":
        """The most reusable stored ancestor, or ``None`` for a cold build.

        Resolves it by lineage (same layout and ordered universe, vector
        suite ⊆ ours, cardinality ≤ ours) and repositions its syndrome
        entries into our suite order.  ``None`` whenever a precondition
        fails — no ancestor, duplicate vector names, ancestor corruption
        (healed here) — and the build then starts from the empty ancestor.
        """
        from repro.store import ArtifactCorruptionError, resolve_ancestor

        names = [v.name for v in self.vectors]
        position = {name: i for i, name in enumerate(names)}
        if len(position) != len(names):
            return None  # duplicate names make entry repositioning ambiguous
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
            return None
        anc = plan.ancestor
        try:
            syndromes = dicts.load_syndromes(anc.digest)
        except ArtifactCorruptionError as error:
            dicts.heal(anc.digest, error)
            return None
        try:
            carried = tuple(
                tuple(sorted((position[entry[0]], entry) for entry in syndrome))
                for syndrome in syndromes
            )
        except KeyError:
            return None  # suite digests lied; do not guess
        return _Ancestor(anc.digest, anc.cardinality, plan.new_positions, carried)

    @_collector_paused()
    def _build(self, start: "_Ancestor", lineage: dict | None) -> None:
        """Build the table in one pass over canonical ``(sets, ids)`` chunks.

        Every diagnosable fault set is visited once, in canonical order:
        first the tiers ``start`` holds, with its stored rows merged in
        (:func:`_held_chunks`), then the tiers it lacks.  A held set is
        judged only on the vectors the ancestor lacks, and its carried
        syndrome entries merge with the new ones in suite order; every
        other set is judged on every vector.  A cold build is the same pass
        from the empty ancestor, which holds no tier and lacks every
        vector.

        Each chunk is judged on arrays and streamed: its sets are
        canonicalized (:meth:`BatchEvaluator.slot_rows`), its new distinct
        scenarios simulated, and each set's observation pattern read
        (:meth:`BatchEvaluator.patterns`).  A syndrome is assembled, and a
        stored one merged, once per distinct ``(stored id, pattern)``
        key, and the chunk's detected sets reach the table and the
        store's writer a syndrome group at a time before the next chunk is
        enumerated, so peak memory is bounded by the chunk size plus the
        *distinct* scenario pool.

        The published artifact is complete and self-contained under the
        target digest, and its table entries, interned syndrome order and
        chunk rows do not depend on where the pass started (pinned by the
        incremental property tests).  The evaluators are private to the
        build, so their scenario pools are freed with it.
        """
        from repro.store.dictionaries import extend_buckets

        universe = self.universe
        kernel = self._context.kernel
        held = start.cardinality
        new = BatchEvaluator(kernel, self.vectors)
        position = {name: i for i, name in enumerate(new.vector_names)}
        finals = [tuple(entry for _, entry in pairs) for pairs in start.carried]
        writer = None
        stored: Iterable = ()
        path = None
        if self.store is not None:
            dicts = self.store.dictionaries
            writer = dicts.writer(
                self.digest,
                self.max_cardinality,
                meta={
                    "array": self.fpva.name,
                    "vectors": len(self.vectors),
                    "universe_size": len(universe),
                    "lineage": lineage,
                },
            )
            if start.digest is not None:
                stored = dicts.iter_chunks(start.digest, len(finals))
                path = dicts.path_for(start.digest)
        stages = (
            (
                BatchEvaluator(kernel, [self.vectors[i] for i in start.lacking]),
                _held_chunks(stored, universe, held, self.chunk_size, path),
            ),
            (
                new,
                (
                    (sets, np.full(len(sets), -1, dtype=np.intp))
                    for sets in _chunked(
                        _index_blocks(universe, self.max_cardinality, held + 1),
                        self.chunk_size,
                    )
                ),
            ),
        )
        table = self._table
        buckets: list[list] = []  # the table's values, in syndrome-id order
        syndrome_ids: dict = {}
        faults = np.fromiter(universe, dtype=object, count=len(universe))
        reused = 0

        def judge(evaluator: BatchEvaluator, key: list[int]) -> int:
            """The table's syndrome id for one ``(stored id, *pattern)``
            key, or -1 for a set no vector detects."""
            stored_id, syndrome = key[0], evaluator.syndrome(key[1:])
            if stored_id >= 0:
                if syndrome:
                    merged = sorted([
                        *start.carried[stored_id],
                        *((position[e[0]], e) for e in syndrome),
                    ])
                    syndrome = tuple(entry for _, entry in merged)
                else:
                    syndrome = finals[stored_id]
            elif not syndrome:
                return -1  # undetectable sets cannot be diagnosed
            found = syndrome_ids.get(syndrome)
            if found is None:
                found = syndrome_ids[syndrome] = len(buckets)
                buckets.append(table[syndrome])
                if writer is not None:
                    writer.intern(syndrome)
            return found

        try:
            for evaluator, chunks in stages:
                # The last stage's sets are the tiers the ancestor lacks.
                promoted_from = self.total_fault_sets
                judged: dict[bytes, int] = {}  # key bytes -> syndrome id
                for sets, ids in chunks:
                    slots = evaluator.slot_rows(universe, sets)
                    evaluator.flush()
                    keys = np.column_stack(
                        (ids, evaluator.patterns(slots))
                    ).astype(np.int32)
                    found = []
                    for r, key in enumerate(
                        keys.view(f"V{keys.itemsize * keys.shape[1]}").ravel().tolist()
                    ):
                        sid = judged.get(key)
                        if sid is None:
                            sid = judged[key] = judge(evaluator, keys[r].tolist())
                        found.append(sid)
                    row_ids = np.array(found, dtype=np.intp)
                    reused += int(np.count_nonzero(ids >= 0))
                    detected = row_ids >= 0
                    sets, row_ids = sets[detected], row_ids[detected]
                    extend_buckets(buckets, faults, sets, row_ids)
                    if writer is not None:
                        writer.extend(sets, row_ids)
            self.build_stats = {"mode": "cold"}
            if start.digest is not None:
                self.build_stats = {
                    "mode": "delta",
                    "parent": start.digest,
                    "parent_cardinality": held,
                    "new_vectors": len(start.lacking),
                    "reused_sets": reused,
                    "promoted_sets": self.total_fault_sets - promoted_from,
                }
                writer.annotate(
                    lineage={
                        **lineage,
                        "parent": start.digest,
                        "delta": {
                            "new_vectors": len(start.lacking),
                            "from_cardinality": held,
                            "reused_sets": reused,
                        },
                    }
                )
            self.build_stats["simulated_scenarios"] = sum(
                evaluator.distinct_scenarios for evaluator, _ in stages
            )
            if writer is not None:
                writer.commit()
        finally:
            if writer is not None:
                writer.abort()

    @property
    def tester(self) -> Tester:
        """The session's tester, constructed lazily on first use."""
        return self._context.tester

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
