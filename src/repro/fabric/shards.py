"""Atomic, content-addressed persistence for completed shard results.

One directory per shard digest, following the store's proven
completeness-marker pattern (:mod:`repro.store.dictionaries`)::

    <root>/<digest>/
        result.npz   # counts + undetected trial indices + pickled examples
        meta.json    # provenance (worker, elapsed); written LAST

``meta.json`` is written last inside a temp directory that is atomically
renamed into place, so a crashed worker never leaves a half-written shard
addressable, and :meth:`ShardStore.has` doubles as the journal's *done*
predicate.  Publishing an already-published digest is a no-op that keeps
the first artifact: content addressing guarantees both are identical, so
a slow worker racing a reclaimed lease is harmless.

Undetected examples are fault-object tuples from arbitrary (possibly
user-registered) scenarios, so they ride as a pickle blob inside the
``.npz`` — the counts that drive merging stay plain integer arrays.
"""

from __future__ import annotations

import io
import json
import os
import pickle
import shutil
import zipfile
from pathlib import Path

import numpy as np

from repro.sim.campaign import CampaignResult
from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    ArtifactCorruptionError,
    data_checksum,
    fsync_dir,
    load_json,
    quarantine,
    verify_file,
)

from repro.fabric.descriptors import ShardDescriptor


class ShardStore:
    """Content-addressed store of published :class:`CampaignResult` shards."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / digest

    def has(self, digest: str) -> bool:
        """Only *complete* artifacts count (``meta.json`` is written last)."""
        return (self.path_for(digest) / "meta.json").exists()

    def meta(self, digest: str) -> dict:
        """The completeness marker — a torn file types as corruption."""
        return load_json(self.path_for(digest) / "meta.json")

    def heal(self, digest: str, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt shard artifact directory.

        After the move :meth:`has` is false, so the shard re-enters its
        journal as *pending* — the drain loop re-simulates and republishes
        it, which is the entire heal path.  The corrupt evidence (and a
        ``.reason.json`` diagnostic) stays under ``quarantine/`` for the
        operator.
        """
        return quarantine(self.root, self.path_for(digest), error.reason)

    def publish(
        self,
        descriptor: ShardDescriptor,
        result: CampaignResult,
        *,
        worker: str = "",
        elapsed: float = 0.0,
    ) -> Path:
        """Atomically publish one shard's result; idempotent per digest."""
        if result.num_faults != descriptor.num_faults or (
            result.trials != descriptor.trials
        ):
            raise ValueError(
                f"result (k={result.num_faults}, trials={result.trials}) does "
                f"not match descriptor (k={descriptor.num_faults}, "
                f"trials={descriptor.trials})"
            )
        final = self.path_for(descriptor.digest)
        if self.has(descriptor.digest):
            return final
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(f"{final.name}.tmp-{os.getpid()}")
        if tmp.exists():
            shutil.rmtree(tmp)
        tmp.mkdir(parents=True)
        try:
            examples = pickle.dumps(list(result.undetected_examples))
            buffer = io.BytesIO()
            np.savez(
                buffer,
                counts=np.array(
                    [result.num_faults, result.trials, result.detected],
                    dtype=np.int64,
                ),
                undetected_trials=np.array(
                    result.undetected_trials, dtype=np.int64
                ),
                examples=np.frombuffer(examples, dtype=np.uint8),
            )
            payload = buffer.getvalue()
            with open(tmp / "result.npz", "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            meta = {
                "version": STORE_FORMAT_VERSION,
                "digest": descriptor.digest,
                "num_faults": descriptor.num_faults,
                "shard": descriptor.shard,
                "trials": descriptor.trials,
                "detected": result.detected,
                "worker": worker,
                "elapsed": float(elapsed),
                "checksum": data_checksum(payload),
            }
            with open(tmp / "meta.json", "w") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            # Payloads and marker are on stable storage before the rename
            # makes them addressable — a power loss cannot publish an
            # empty shard behind the completeness marker.
            fsync_dir(tmp)
            try:
                os.replace(tmp, final)
            except OSError:
                # A concurrent publish won the rename race; its artifact
                # is identical by content addressing, so keep it.
                if not (final / "meta.json").exists():
                    raise
                shutil.rmtree(tmp)
            fsync_dir(self.root)
        finally:
            if tmp.exists():  # pragma: no cover - crash-path cleanup
                shutil.rmtree(tmp)
        return final

    def load(self, digest: str) -> CampaignResult:
        """Materialize one published shard, bit-identical to the publish.

        Verifies the ``result.npz`` checksum recorded at publish against
        exactly the bytes parsed; a mismatch, a torn ``meta.json`` or an
        unparseable payload raises :exc:`ArtifactCorruptionError` — the
        journal runner converts that into quarantine-and-resimulate
        rather than ever merging a corrupt shard.
        """
        directory = self.path_for(digest)
        meta = self.meta(digest)
        if meta["version"] != STORE_FORMAT_VERSION:
            raise ValueError(
                f"shard artifact {directory} has an unsupported format version"
            )
        payload = verify_file(directory / "result.npz", meta.get("checksum"))
        try:
            with np.load(io.BytesIO(payload)) as data:
                num_faults, trials, detected = (int(v) for v in data["counts"])
                undetected_trials = [int(t) for t in data["undetected_trials"]]
                examples = pickle.loads(data["examples"].tobytes())
        except (
            zipfile.BadZipFile,
            KeyError,
            OSError,
            pickle.UnpicklingError,
            EOFError,
        ) as exc:
            raise ArtifactCorruptionError(
                directory / "result.npz", f"unparseable payload: {exc}"
            )
        return CampaignResult(
            num_faults=num_faults,
            trials=trials,
            detected=detected,
            undetected_examples=examples,
            undetected_trials=undetected_trials,
        )
