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

The writer appends chunks as a **streaming** build produces them, so the
producer never holds more than one chunk of encoded rows.  It publishes
through the store's one protocol (:mod:`repro.store.integrity`): every
payload is written durably into a staged directory as the build goes,
``meta.json`` — the completeness marker, recording a BLAKE2b checksum per
file — lands last, and the directory is renamed into place, so a crashed
build leaves nothing addressable and a power loss cannot leave an empty
chunk behind the marker.  :class:`DictionaryStore` requires those
checksums: every read verifies each file's bytes before parsing them, and
any damage — a mismatch, a torn marker, a marker naming another format
version, lacking a key or disagreeing with the universe the artifact is
addressed by — raises :exc:`~repro.store.integrity.ArtifactCorruptionError`,
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
    """Syndrome tuples → the interned JSON payload (see module docstring)."""
    vector_ids: dict[str, int] = {}
    sinks: tuple[str, ...] | None = None
    encoded = []
    for syndrome in syndromes:
        entries = []
        for name, items in syndrome:
            vi = vector_ids.setdefault(name, len(vector_ids))
            names = tuple(sink for sink, _ in items)
            if sinks is None:
                sinks = names
            elif names != sinks:
                raise ValueError(
                    f"inconsistent sink signature in syndromes: "
                    f"{names} vs {sinks}"
                )
            mask = 0
            for j, (_, val) in enumerate(items):
                if val:
                    mask |= 1 << j
            entries.append([vi, mask])
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
    directory: Path, meta: dict
) -> Iterator[tuple[list[list[int]], list[int]]]:
    """Each chunk's ``(rows, syndrome ids)``, verified, in append order."""
    checksums = meta["checksums"]
    for chunk in range(meta["chunks"]):
        name = f"chunk-{chunk:05d}.npz"
        arrays = read_npz(
            directory / name, checksums.get(name), ("sets", "syndromes")
        )
        yield arrays["sets"].tolist(), arrays["syndromes"].tolist()


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
        self._rows: list[tuple[int, ...]] = []
        self._row_syndromes: list[int] = []
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

    def add(self, indices: Sequence[int], syndrome: Any) -> None:
        """Record one detected fault set (universe indices) + its syndrome."""
        ids = self._syndrome_ids
        sid = ids.get(syndrome)
        if sid is None:
            sid = ids[syndrome] = len(ids)
        pad = self._cardinality - len(indices)
        self._rows.append(tuple(indices) + (-1,) * pad)
        self._row_syndromes.append(sid)
        if len(self._rows) >= CHUNK_ROWS:
            self._flush_chunk()

    def _flush_chunk(self) -> None:
        if not self._rows:
            return
        buffer = io.BytesIO()
        np.savez(
            buffer,
            sets=np.array(self._rows, dtype=np.int32),
            syndromes=np.array(self._row_syndromes, dtype=np.int32),
        )
        self._write_payload(f"chunk-{self._chunks:05d}.npz", buffer.getvalue())
        self._total += len(self._rows)
        self._rows = []
        self._row_syndromes = []
        self._chunks += 1

    def commit(self) -> Path:
        """Flush, write the syndrome table and metadata, publish atomically
        (:func:`~repro.store.integrity.publish_dir`)."""
        self._flush_chunk()
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
        # each row appends through a pre-resolved bucket reference — the
        # nested syndrome tuples are hashed once per *syndrome*, never per
        # fault set, which is what keeps warm loads 20x+ under cold builds.
        table: dict = defaultdict(list)
        buckets = [table[syndrome] for syndrome in syndromes]
        faults = list(universe)
        cardinality = meta["cardinality"]
        for rows, sids in _read_chunks(directory, meta):
            if cardinality == 1:
                for row, sid in zip(rows, sids):
                    buckets[sid].append((faults[row[0]],))
            elif cardinality == 2:
                for (i, j), sid in zip(rows, sids):
                    buckets[sid].append(
                        (faults[i], faults[j]) if j >= 0 else (faults[i],)
                    )
            else:
                # Arbitrary cardinality: strip the -1 padding (trailing by
                # construction, but filtering is order-preserving either way).
                for row, sid in zip(rows, sids):
                    buckets[sid].append(
                        tuple(faults[i] for i in row if i >= 0)
                    )
        return table

    # -- lineage-aware access ---------------------------------------------
    def load_syndromes(self, digest: str) -> list[tuple]:
        """Just the interned syndrome table of one artifact, verified.

        The incremental build reads an *ancestor's* syndromes (to remap
        their entries into the target suite's positions) without
        materializing its full table.
        """
        return _read_syndromes(self.path_for(digest), self.meta(digest))

    def iter_rows(self, digest: str) -> Iterator[tuple[tuple[int, ...], int]]:
        """Stream ``(universe-index tuple, syndrome id)`` rows in append order.

        Padding (-1) is stripped, so rows compare directly against the
        canonical fault-set enumeration — the merge-walk the incremental
        build runs against the ancestor artifact.  Verification is lazy
        per chunk; corruption surfaces as :exc:`ArtifactCorruptionError`
        mid-iteration and the caller heals + falls back to a cold build.
        """
        for rows, sids in _read_chunks(self.path_for(digest), self.meta(digest)):
            for row, sid in zip(rows, sids):
                end = len(row)
                while end and row[end - 1] < 0:
                    end -= 1
                yield tuple(row[:end]), sid

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
