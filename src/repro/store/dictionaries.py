"""Chunked on-disk persistence for fault-dictionary syndrome tables.

A dictionary artifact is a content-addressed directory::

    <root>/<digest>/
        chunk-00000.npz   # sets: (N, cardinality) int32 universe indices
        chunk-00001.npz   #       (-1 padded); syndromes: (N,) int32 ids
        ...
        syndromes.json    # interned syndrome table, in first-seen order
        meta.json         # counts + format version; written LAST

Fault sets are stored as indices into the build's ordered fault universe
(the digest covers the universe, so indices are unambiguous), and each
detected set carries the id of its syndrome — full syndromes are stored
once, not per fault set, which keeps 10x10-and-up double-fault tables to
a few int32s per entry.  The syndrome table itself is interned the same
way: vector names once in a header, each failing vector's meter readout
as a bitmask over the (sorted) sink names, so a syndrome serializes as
``[[vector_id, readout_mask], ...]`` — warm loads spend their time
parsing integers, not re-reading thousands of repeated port-name strings.

The writer takes a build's detected sets a chunk at a time
(:meth:`DictionaryWriter.extend`) and writes them out as
:data:`CHUNK_ROWS`-row files as a **streaming** build produces them, so
the producer never holds more than one chunk of encoded rows.  A warm
load groups every chunk's rows by syndrome id on arrays
(:func:`extend_buckets`), hashing each syndrome once and building one
fault tuple per row.  The writer publishes through the store's one
protocol (:mod:`repro.store.integrity`): every
payload is written durably into a staged directory as the build goes,
``meta.json`` — the completeness marker, recording a BLAKE2b checksum per
file — lands last, and the directory is renamed into place, so a crashed
build leaves nothing addressable and a power loss cannot leave an empty
chunk behind the marker.  :class:`DictionaryStore` requires those
checksums: every read verifies each file's bytes before parsing them, and
any damage — a mismatch, a torn marker, a marker naming another format
version, lacking a key or disagreeing with the universe the artifact is
addressed by, a chunk row outside that universe or the syndrome table —
raises :exc:`~repro.store.integrity.ArtifactCorruptionError`,
which callers convert into quarantine-and-rebuild
(:class:`~repro.sim.diagnosis.FaultDictionary` re-simulates the table).
"""

from __future__ import annotations

import io
import json
import shutil
from collections import defaultdict
from pathlib import Path
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    MARKER,
    ArtifactCorruptionError,
    ArtifactDirectory,
    fsync_dir,
    load_json,
    publish_dir,
    quarantine,
    read_npz,
    stage_dir,
    verify_file,
    write_durable,
)
from repro.store.lineage import DictionaryInfo, GcPlan, dictionary_info, plan_gc

#: Encoded rows buffered before a chunk file is flushed to disk.
CHUNK_ROWS = 16384


def encode_syndromes(syndromes: Iterable) -> dict:
    """Syndrome tuples → the interned JSON payload (see module docstring).

    Each distinct ``(vector, observed items)`` entry is encoded once, and
    a readout mask computed once per distinct items tuple.
    """
    vector_ids: dict[str, int] = {}
    sinks: tuple[str, ...] | None = None
    masks: dict[tuple, int] = {}
    pairs: dict[tuple, list[int]] = {}
    encoded = []
    for syndrome in syndromes:
        entries = []
        for entry in syndrome:
            pair = pairs.get(entry)
            if pair is None:
                name, items = entry
                mask = masks.get(items)
                if mask is None:
                    names = tuple(sink for sink, _ in items)
                    if sinks is None:
                        sinks = names
                    elif names != sinks:
                        raise ValueError(
                            f"inconsistent sink signature in syndromes: "
                            f"{names} vs {sinks}"
                        )
                    mask = masks[items] = sum(
                        1 << j for j, (_, val) in enumerate(items) if val
                    )
                vi = vector_ids.setdefault(name, len(vector_ids))
                pair = pairs[entry] = [vi, mask]
            entries.append(pair)
        encoded.append(entries)
    return {
        "vectors": list(vector_ids),
        "sinks": list(sinks or ()),
        "syndromes": encoded,
    }


def decode_syndromes(payload: dict) -> list[tuple]:
    """Inverse of :func:`encode_syndromes` — bit-identical tuples back.

    Repeated ``(vector, readout)`` pairs and readout item tuples are
    interned while decoding, so cost scales with *distinct* failures, not
    with table size.
    """
    vectors = payload["vectors"]
    sinks = payload["sinks"]
    items_cache: dict[int, tuple] = {}
    pair_cache: dict[tuple[int, int], tuple] = {}
    syndromes = []
    for entries in payload["syndromes"]:
        decoded = []
        for vi, mask in entries:
            key = (vi, mask)
            pair = pair_cache.get(key)
            if pair is None:
                items = items_cache.get(mask)
                if items is None:
                    items = items_cache[mask] = tuple(
                        (sink, bool((mask >> j) & 1))
                        for j, sink in enumerate(sinks)
                    )
                pair = pair_cache[key] = (vectors[vi], items)
            decoded.append(pair)
        syndromes.append(tuple(decoded))
    return syndromes


def _read_syndromes(directory: Path, meta: dict) -> list[tuple]:
    """The verified, decoded ``syndromes.json`` of one artifact."""
    path = directory / "syndromes.json"
    payload = verify_file(path, meta["checksums"].get(path.name))
    try:
        return decode_syndromes(json.loads(payload))
    except (ValueError, KeyError) as exc:
        raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")


def _read_chunks(
    directory: Path, meta: dict, syndromes: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each chunk's ``(sets, syndrome ids)`` arrays, verified, in append
    order.

    Besides each file's checksum, the rows must be what the writer
    writes: ``cardinality`` universe indices per row, ``-1`` padding
    trailing, and ids below ``syndromes``, the artifact's syndrome count.
    """
    checksums = meta["checksums"]
    cardinality, size = meta["cardinality"], meta["universe_size"]
    for chunk in range(meta["chunks"]):
        name = f"chunk-{chunk:05d}.npz"
        path = directory / name
        arrays = read_npz(path, checksums.get(name), ("sets", "syndromes"))
        sets, sids = arrays["sets"], arrays["syndromes"]
        held = sets >= 0
        if (
            sets.dtype.kind not in "iu"
            or sids.dtype.kind not in "iu"
            or sids.ndim != 1
            or sets.shape != (len(sids), cardinality)
            or (sets < -1).any()
            or (sets >= size).any()
            or not held[:, :1].all()
            or (held[:, 1:] > held[:, :-1]).any()
            or (sids < 0).any()
            or (sids >= syndromes).any()
        ):
            raise ArtifactCorruptionError(
                path, "fault-set rows out of the artifact's range"
            )
        yield sets, sids


def extend_buckets(
    buckets: Sequence[list],
    faults: np.ndarray,
    sets: np.ndarray,
    ids: np.ndarray,
) -> None:
    """Append each set's fault tuple to bucket ``ids[r]``, in row order.

    ``faults`` is the ordered universe as an object array and ``sets``
    holds ``-1``-padded universe-index rows (padding trailing).  One stable
    sort groups the rows by bucket and set size, and each group extends
    its bucket from 1-D index columns at once, so the per-syndrome
    candidate order is the rows' order.
    """
    if not len(sets):
        return
    # Ids that fit 16 bits sort as uint16, which numpy radix-sorts.
    order = np.argsort(
        ids.astype(np.uint16) if len(buckets) <= 1 << 16 else ids, kind="stable"
    )
    sets, ids = sets[order], ids[order]
    sizes = (sets >= 0).sum(axis=1)
    cuts = np.flatnonzero((ids[1:] != ids[:-1]) | (sizes[1:] != sizes[:-1])) + 1
    starts = [0, *cuts.tolist()]
    # The rows of each size as fault tuples, in order; a group's rows are
    # a run of its size's list, from the group's offset in it.
    tuples: dict[int, list] = {}
    offsets = np.empty(len(sets), dtype=np.intp)
    for size in np.flatnonzero(np.bincount(sizes)).tolist():
        rows = np.flatnonzero(sizes == size)
        offsets[rows] = np.arange(len(rows), dtype=np.intp)
        tuples[size] = list(
            zip(*(faults[sets[rows, k]].tolist() for k in range(size)))
        )
    for lo, hi, at, bucket, size in zip(
        starts,
        [*starts[1:], len(sets)],
        offsets[starts].tolist(),
        ids[starts].tolist(),
        sizes[starts].tolist(),
    ):
        buckets[bucket].extend(tuples[size][at : at + hi - lo])


class DictionaryWriter:
    """Streaming appender for one dictionary artifact.

    Builds into ``<digest>.tmp-<pid>`` and renames to ``<digest>`` on
    :meth:`commit`; :meth:`abort` (idempotent, safe after commit) discards
    the temp directory, so ``try/finally: writer.abort()`` around a build
    yields all-or-nothing persistence.
    """

    def __init__(self, directory: Path, cardinality: int, meta: dict) -> None:
        self._final = directory
        self._tmp = stage_dir(directory)
        self._cardinality = cardinality
        self._meta = dict(meta)
        self._syndrome_ids: dict = {}
        #: Buffered ``(sets, syndrome ids)`` blocks, ``_buffered`` rows.
        self._blocks: list[tuple[np.ndarray, np.ndarray]] = []
        self._buffered = 0
        self._checksums: dict[str, str] = {}
        self._chunks = 0
        self._total = 0
        self._committed = False

    def annotate(self, **fields: Any) -> None:
        """Merge extra metadata fields before :meth:`commit`.

        Incremental builds use this to record their lineage (parent
        digest + the delta that produced the artifact) once the delta's
        actual shape — reused rows, simulated columns — is known.
        """
        if self._committed:
            raise RuntimeError("cannot annotate a committed artifact")
        self._meta.update(fields)

    def _write_payload(self, name: str, payload: bytes) -> None:
        """Write one artifact file durably, recording its checksum."""
        self._checksums[name] = write_durable(self._tmp / name, payload)

    def intern(self, syndrome: Any) -> int:
        """``syndrome``'s id in this artifact: ids count up in first-seen
        order."""
        ids = self._syndrome_ids
        sid = ids.get(syndrome)
        if sid is None:
            sid = ids[syndrome] = len(ids)
        return sid

    def add(self, indices: Sequence[int], syndrome: Any) -> None:
        """Record one detected fault set (universe indices) + its syndrome."""
        self.extend(np.array([indices]), np.array([self.intern(syndrome)]))

    def extend(self, sets: np.ndarray, sids: np.ndarray) -> None:
        """Record detected fault sets in bulk: ``sets`` holds universe-index
        rows (``-1``-padded), ``sids`` their :meth:`intern` ids."""
        rows = np.full((len(sets), self._cardinality), -1, dtype=np.int32)
        rows[:, : sets.shape[1]] = sets
        self._blocks.append((rows, np.asarray(sids, dtype=np.int32)))
        self._buffered += len(rows)
        while self._buffered >= CHUNK_ROWS:
            self._flush_chunk(CHUNK_ROWS)

    def _flush_chunk(self, rows: int) -> None:
        """Write the first ``rows`` buffered rows as the next chunk file."""
        if not rows:
            return
        sets = np.concatenate([block[0] for block in self._blocks])
        sids = np.concatenate([block[1] for block in self._blocks])
        buffer = io.BytesIO()
        np.savez(buffer, sets=sets[:rows], syndromes=sids[:rows])
        self._write_payload(f"chunk-{self._chunks:05d}.npz", buffer.getvalue())
        self._blocks = [(sets[rows:], sids[rows:])]
        self._buffered -= rows
        self._total += rows
        self._chunks += 1

    def commit(self) -> Path:
        """Flush, write the syndrome table and metadata, publish atomically
        (:func:`~repro.store.integrity.publish_dir`)."""
        self._flush_chunk(self._buffered)
        # Insertion order == id order, so the dict iterates id-sorted.
        self._write_payload(
            "syndromes.json",
            json.dumps(
                encode_syndromes(self._syndrome_ids), separators=(",", ":")
            ).encode(),
        )
        meta = {
            **self._meta,
            "version": STORE_FORMAT_VERSION,
            "cardinality": self._cardinality,
            "chunks": self._chunks,
            "fault_sets": self._total,
            "distinct_syndromes": len(self._syndrome_ids),
            "checksums": dict(sorted(self._checksums.items())),
        }
        publish_dir(self._tmp, self._final, meta)
        self._committed = True
        return self._final

    def abort(self) -> None:
        """Discard the temp directory (no-op after a successful commit)."""
        if not self._committed and self._tmp.exists():
            shutil.rmtree(self._tmp)


class DictionaryStore(ArtifactDirectory):
    """Content-addressed store of chunked syndrome tables."""

    MARKER_KEYS = ("cardinality", "checksums", "chunks", "universe_size")

    def writer(
        self, digest: str, cardinality: int, meta: dict | None = None
    ) -> DictionaryWriter:
        return DictionaryWriter(
            self.path_for(digest), cardinality, meta or {}
        )

    def load(self, digest: str, universe: Sequence) -> dict:
        """Materialize the syndrome table against the build's universe.

        Iterates chunks in append order, so syndromes first-seen order and
        per-syndrome candidate order — and therefore every downstream
        ``DiagnosisReport`` — are bit-identical to the cold build's.
        """
        directory = self.path_for(digest)
        meta = self.meta(digest)
        if meta["universe_size"] != len(universe):
            raise ArtifactCorruptionError(
                directory / MARKER,
                f"marker records a {meta['universe_size']}-fault universe, "
                f"but the artifact is addressed by a {len(universe)}-fault one",
            )
        syndromes = _read_syndromes(directory, meta)
        # Table keys are created in syndrome-id (= first-seen) order, and
        # the rows extend pre-resolved buckets a syndrome group at a time
        # — the nested syndrome tuples are hashed once per *syndrome*,
        # never per fault set, which is what keeps warm loads 20x+ under
        # cold builds.
        table: dict = defaultdict(list)
        buckets = [table[syndrome] for syndrome in syndromes]
        faults = np.fromiter(universe, dtype=object, count=len(universe))
        for sets, sids in _read_chunks(directory, meta, len(syndromes)):
            extend_buckets(buckets, faults, sets, sids)
        return table

    # -- lineage-aware access ---------------------------------------------
    def load_syndromes(self, digest: str) -> list[tuple]:
        """Just the interned syndrome table of one artifact, verified.

        The incremental build reads an *ancestor's* syndromes (to remap
        their entries into the target suite's positions) without
        materializing its full table.
        """
        return _read_syndromes(self.path_for(digest), self.meta(digest))

    def iter_chunks(
        self, digest: str, syndromes: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Stream ``(sets, syndrome ids)`` chunk arrays in append order.

        ``sets`` rows are ``-1``-padded universe indices, and ``syndromes``
        is the artifact's syndrome count, which every id must stay below —
        the merge-walk the incremental build runs against the ancestor
        artifact.  Verification is lazy per chunk; corruption surfaces as
        :exc:`ArtifactCorruptionError` mid-iteration and the caller heals
        + falls back to a cold build.
        """
        yield from _read_chunks(self.path_for(digest), self.meta(digest), syndromes)

    def catalog(self) -> list[DictionaryInfo]:
        """Every complete, lineage-bearing artifact in the store.

        Scan-based (the ``meta.json`` completeness markers *are* the
        index — there is no separate catalog file to corrupt or race).
        Unreadable or pre-lineage metadata skips the entry rather than
        failing the scan: reuse and GC simply do not see it.
        """
        if not self.root.is_dir():
            return []
        infos = []
        for entry in sorted(self.root.iterdir()):
            if not entry.is_dir() or entry.name == "quarantine":
                continue
            if ".tmp-" in entry.name:
                continue
            try:
                meta = load_json(entry / "meta.json")
            except (FileNotFoundError, ArtifactCorruptionError):
                continue
            size = sum(
                f.stat().st_size for f in entry.iterdir() if f.is_file()
            )
            info = dictionary_info(entry.name, meta, bytes_on_disk=size)
            if info is not None:
                infos.append(info)
        return infos

    def gc(
        self, apply: bool = False, quarantine_evidence: bool = False
    ) -> dict:
        """List (and optionally remove) superseded ancestor dictionaries.

        An artifact is superseded when it is the recorded lineage parent
        of another *stored* artifact: the child is complete and carries a
        superset of its information, so nothing — warm loads included —
        is lost by dropping the parent (only a ``base_digest`` pinned to
        it would fall back to a cold build).  Lineage tips and artifacts
        without lineage metadata are never touched.

        ``apply=False`` (the default) is a dry run.  With ``apply=True``
        superseded artifacts are deleted — unless ``quarantine_evidence``
        moves them into the store's ``quarantine/`` directory instead
        (the never-delete-evidence option, same protocol corruption
        uses), where loads no longer address them but the operator keeps
        the bytes.
        """
        plan: GcPlan = plan_gc(self)
        removed: list[str] = []
        for info in plan.superseded:
            if not apply:
                continue
            path = self.path_for(info.digest)
            if not (path / "meta.json").exists():
                continue  # a concurrent gc (or heal) got here first
            if quarantine_evidence:
                reason = "superseded by lineage descendants: " + ", ".join(
                    plan.children.get(info.digest, ())
                )
                if quarantine(self.root, path, reason) is not None:
                    removed.append(info.digest)
            else:
                shutil.rmtree(path)
                removed.append(info.digest)
        if removed:
            fsync_dir(self.root)
        action = "dry-run"
        if apply:
            action = "quarantined" if quarantine_evidence else "removed"
        return {
            "action": action,
            "superseded": [
                {
                    "digest": i.digest,
                    "cardinality": i.cardinality,
                    "fault_sets": i.fault_sets,
                    "vectors": len(i.suite),
                    "bytes": i.bytes_on_disk,
                    "superseded_by": list(plan.children.get(i.digest, ())),
                }
                for i in plan.superseded
            ],
            "kept": [i.digest for i in plan.kept],
            "reclaimable_bytes": plan.reclaimable_bytes,
            "removed": removed,
        }
