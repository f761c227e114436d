"""Artifact integrity: the one publish, verify and heal protocol.

Three artifact families persist under a cache or journal directory —
generated test suites (:mod:`repro.store.suites`), dictionary syndrome
tables (:mod:`repro.store.dictionaries`) and campaign shards
(:mod:`repro.fabric.shards`) — and all three publish, verify and heal
through this module.  Nothing else in the package calls ``os.fsync``.
Every artifact is a directory, ``<root>/<digest>/``, whose ``meta.json``
is its completeness marker.

* **Publish.**  :func:`write_durable` writes each payload to a staging
  path, fsyncs it and returns its BLAKE2b checksum.  The artifact is
  staged whole (:func:`stage_dir`); :func:`publish_dir` writes the
  ``meta.json`` marker recording those checksums last, fsyncs it, and
  publishes the artifact by one rename.  When a concurrent publisher won
  that rename its artifact is identical by content addressing, so it is
  kept.  Neither a crash nor a power loss leaves a half-written artifact
  addressable.

* **Verify.**  Loads parse the marker through
  :meth:`ArtifactDirectory.meta` and each payload through
  :func:`verify_file` (or :func:`read_npz`), which checks the recorded
  checksum against exactly the bytes about to be parsed.  Checksums are
  required: a marker that records none is as damaged as one that does
  not parse.

* **Heal.**  Every kind of damage — a checksum mismatch, a missing
  payload, a torn marker, a marker that parses but names another format
  version or lacks a key its loader reads, an unparseable payload —
  raises :exc:`ArtifactCorruptionError`.  The caller then moves the
  artifact into a ``quarantine/`` sibling directory (:func:`quarantine`;
  never deleted — the evidence is for the operator) next to a
  ``<name>.reason.json`` diagnostic.  After the move the artifact is
  simply *absent*, so the ordinary cold-build path regenerates it:
  suites regenerate, dictionary chunks re-simulate, shards re-enter
  their journal as pending.  Corruption heals through the same code
  paths a cache miss takes.

:class:`ArtifactDirectory` is the addressing the three stores share:
``<root>/<digest>/`` with ``meta.json`` as the marker, and
:meth:`~ArtifactDirectory.heal` to quarantine one.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import time
import zipfile
from pathlib import Path
from typing import Sequence

import numpy as np

from repro.store.digest import STORE_FORMAT_VERSION

#: Filename of the per-artifact diagnostic record written on quarantine.
REASON_SUFFIX = ".reason.json"

#: Completeness marker of a directory artifact; written last.
MARKER = "meta.json"

#: Hex-digest size used for artifact content checksums (BLAKE2b).
CHECKSUM_DIGEST_SIZE = 16


class ArtifactCorruptionError(RuntimeError):
    """A stored artifact failed integrity verification.

    Carries enough context for the caller to quarantine and rebuild:
    the artifact ``path`` that failed and a human-readable ``reason``.
    Callers are expected to convert this into quarantine-and-rebuild,
    never to merge or serve the corrupt payload.
    """

    def __init__(self, path: str | os.PathLike, reason: str) -> None:
        self.path = Path(path)
        self.reason = reason
        super().__init__(f"corrupt artifact {self.path}: {reason}")


def data_checksum(payload: bytes) -> str:
    """BLAKE2b hex checksum of an in-memory payload."""
    return hashlib.blake2b(
        payload, digest_size=CHECKSUM_DIGEST_SIZE
    ).hexdigest()


# -- publish -----------------------------------------------------------------


def write_durable(tmp: Path, payload: bytes) -> str:
    """Write ``payload`` to the staging path ``tmp`` and fsync it.

    Returns the payload's checksum, for the completeness marker.  The
    caller makes ``tmp`` addressable afterwards, by renaming it or the
    staged directory holding it.
    """
    with open(tmp, "wb") as fh:
        fh.write(payload)
        fh.flush()
        os.fsync(fh.fileno())
    return data_checksum(payload)


def marker_bytes(meta: dict) -> bytes:
    """The serialized completeness marker (indented, keys sorted)."""
    return json.dumps(meta, indent=2, sort_keys=True).encode()


def fsync_dir(path: str | os.PathLike) -> None:
    """Flush a directory entry (new/renamed children) to stable storage.

    Best-effort on filesystems that refuse ``fsync`` on directories —
    the atomic-rename protocol is still crash-safe there, just not
    power-loss-proof.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-specific
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-specific
        pass
    finally:
        os.close(fd)


def stage_dir(final: Path) -> Path:
    """A fresh, empty staging directory for the directory artifact ``final``.

    It sits beside ``final`` (``<name>.tmp-<pid>``), so the publishing
    rename never crosses a filesystem; parents are created as needed.
    """
    tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
    if tmp.exists():
        shutil.rmtree(tmp)
    tmp.mkdir(parents=True)
    return tmp


def publish_dir(tmp: Path, final: Path, meta: dict) -> None:
    """Complete the staged directory ``tmp`` and rename it to ``final``.

    ``meta`` becomes the ``meta.json`` marker, written last.  The marker
    and the staging directory are fsynced before the rename, and the
    store root after it, so the marker can never outlive a power loss
    that its payloads didn't.  A concurrent publisher that won the
    rename keeps its artifact, which is identical by content addressing.
    """
    write_durable(tmp / MARKER, marker_bytes(meta))
    fsync_dir(tmp)
    try:
        os.replace(tmp, final)
    except OSError:
        # The rename target exists and is non-empty: someone else
        # published first.
        if not (final / MARKER).exists():
            raise
        shutil.rmtree(tmp)
    fsync_dir(final.parent)


# -- verify ------------------------------------------------------------------


#: Per-process memo of payloads that already verified clean: path ->
#: (expected checksum, size, mtime_ns, inode) captured from the very file
#: descriptor the clean bytes were read through.  Published artifacts are
#: immutable (atomic replace swaps the whole inode), so a later read of
#: the same path whose fstat signature still matches is the same bytes —
#: warm-session consumers that touch one chunk many times pay BLAKE2b
#: once, not per load.  Verification stays lazy and a *changed* file
#: (heal, republish, corruption injected via a fresh write) changes its
#: signature and re-verifies; the one hole — an in-place bit flip that
#: leaves size+mtime+inode intact within a single process's lifetime —
#: is caught by the next process, exactly the window the pre-cache code
#: had between its own read and parse.
# repro: ignore[R7] -- deliberate per-process cache of verified payload digests, keyed by path + fstat identity; bounded FIFO, never shared across processes
_VERIFIED: dict[str, tuple[str, int, int, int]] = {}

#: FIFO bound on the verified-payload memo (a 20x20 card-2 dictionary is
#: a few hundred chunks; 4096 entries covers many warm sessions).
_VERIFIED_LIMIT = 4096


def _reset_verified_cache() -> None:
    """Drop the per-process verified-payload memo (test hook)."""
    _VERIFIED.clear()


def verify_file(path: str | os.PathLike, expected: str | None) -> bytes:
    """Read ``path`` fully, verifying its checksum on the way.

    Returns the verified bytes (so callers parse exactly what was
    hashed — no read-verify-reread race).  ``expected`` is the checksum
    the artifact's marker recorded; ``None``, a marker that recorded
    none, is damage like any other.  Repeat reads of a payload this
    process already verified skip the hash when the file's fstat
    signature is unchanged (see ``_VERIFIED``); a mismatch always raises
    and never caches.
    """
    if expected is None:
        raise ArtifactCorruptionError(path, "its marker records no checksum")
    try:
        with open(path, "rb") as fh:
            stat = os.fstat(fh.fileno())
            payload = fh.read()
    except FileNotFoundError:
        raise ArtifactCorruptionError(path, "payload file is missing") from None
    key = str(path)
    signature = (expected, stat.st_size, stat.st_mtime_ns, stat.st_ino)
    if _VERIFIED.get(key) == signature and len(payload) == stat.st_size:
        return payload
    actual = data_checksum(payload)
    if actual != expected:
        raise ArtifactCorruptionError(
            path, f"checksum mismatch (expected {expected}, got {actual})"
        )
    while len(_VERIFIED) >= _VERIFIED_LIMIT:
        _VERIFIED.pop(next(iter(_VERIFIED)))
    _VERIFIED[key] = signature
    return payload


def read_npz(
    path: Path, expected: str | None, keys: Sequence[str]
) -> dict[str, np.ndarray]:
    """Verify an ``.npz`` payload, then parse the arrays named ``keys``.

    An unparseable payload, or one without a named array, raises
    :exc:`ArtifactCorruptionError` instead of a :mod:`numpy` error.
    """
    payload = verify_file(path, expected)
    try:
        with np.load(io.BytesIO(payload)) as data:
            return {key: data[key] for key in keys}
    except (zipfile.BadZipFile, KeyError, OSError, ValueError, EOFError) as exc:
        raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")


def load_json(path: str | os.PathLike) -> dict:
    """Parse a completeness marker, typing torn/absent files as corruption.

    A ``meta.json`` that exists but does not parse is exactly the torn
    write this layer exists to catch — surfacing it as
    :exc:`ArtifactCorruptionError` lets every caller share one
    quarantine-and-rebuild path instead of special-casing
    ``JSONDecodeError``.
    """
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
        raise ArtifactCorruptionError(path, f"unreadable metadata: {exc}")


class ArtifactDirectory:
    """A content-addressed store of ``<root>/<digest>/`` directory artifacts.

    Each artifact's ``meta.json`` marker is written last
    (:func:`publish_dir`), so only complete artifacts are addressable.
    """

    #: Marker keys the subclass's loaders read, besides ``version``.
    MARKER_KEYS: tuple[str, ...] = ()

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest

    def has(self, digest: str) -> bool:
        """Only *complete* artifacts count (``meta.json`` is written last)."""
        return (self.path_for(digest) / MARKER).exists()

    def meta(self, digest: str) -> dict:
        """The completeness marker, as far as its loader can trust it.

        Besides a torn file (:func:`load_json`), a marker that parses but
        names another format version, or lacks one of :attr:`MARKER_KEYS`,
        is damage: the artifact's digest already pins the format and every
        field.  An absent marker raises :exc:`FileNotFoundError`, as a
        cache miss.
        """
        path = self.path_for(digest) / MARKER
        meta = load_json(path)
        if not isinstance(meta, dict) or meta.get("version") != STORE_FORMAT_VERSION:
            raise ArtifactCorruptionError(
                path, f"marker does not name format version {STORE_FORMAT_VERSION}"
            )
        missing = sorted(set(self.MARKER_KEYS).difference(meta))
        if missing:
            raise ArtifactCorruptionError(path, f"marker lacks {', '.join(missing)}")
        return meta

    def heal(self, digest: str, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt artifact directory.

        After the move :meth:`has` is false again, so the ordinary cold
        path rebuilds and republishes the artifact.
        """
        return quarantine(self.root, self.path_for(digest), error.reason)


# -- heal --------------------------------------------------------------------


def quarantine(
    root: str | os.PathLike, artifact: str | os.PathLike, reason: str
) -> Path | None:
    """Move a corrupt artifact (file or directory) into ``root/quarantine``.

    Returns the quarantined path, or ``None`` when the artifact vanished
    meanwhile (a concurrent healer won — their quarantine carries the
    evidence).  Repeated quarantines of the same name get ``-1``, ``-2``
    … suffixes, so evidence from independent corruption events never
    overwrites.  A ``<name>.reason.json`` diagnostic records why, when,
    and by whom.
    """
    artifact = Path(artifact)
    pen = Path(root) / "quarantine"
    pen.mkdir(parents=True, exist_ok=True)
    target = pen / artifact.name
    bump = 0
    while target.exists():
        bump += 1
        target = pen / f"{artifact.name}-{bump}"
    try:
        os.replace(artifact, target)
    except FileNotFoundError:
        return None
    except OSError:
        # Cross-device or directory-over-directory edge: fall back to a
        # copy-then-remove move (still never deletes without preserving).
        shutil.move(str(artifact), str(target))
    record = {
        "artifact": artifact.name,
        "quarantined_from": str(artifact.parent),
        "reason": reason,
        "pid": os.getpid(),
        "quarantined_at": time.time(),
    }
    with open(f"{target}{REASON_SUFFIX}", "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    return target


def quarantined_artifacts(root: str | os.PathLike) -> list[dict]:
    """The diagnostic records under ``root/quarantine`` (operator view)."""
    pen = Path(root) / "quarantine"
    if not pen.is_dir():
        return []
    records = []
    for reason_file in sorted(pen.glob(f"*{REASON_SUFFIX}")):
        try:
            with open(reason_file) as fh:
                records.append(json.load(fh))
        except (json.JSONDecodeError, OSError):  # pragma: no cover
            records.append({"artifact": reason_file.name, "reason": "unreadable"})
    return records
