"""Atomic, content-addressed persistence for completed shard results.

One directory per shard digest, published through the store's one
protocol (:mod:`repro.store.integrity`), like a dictionary artifact::

    <root>/<digest>/
        result.npz   # counts + undetected trial indices + pickled examples
        meta.json    # provenance, the payload checksum; written LAST

The payload is written durably into a staged directory, ``meta.json``
lands last, and the directory is renamed into place, so a crashed worker
never leaves a half-written shard addressable and :meth:`ShardStore.has`
doubles as the journal's *done* predicate.  Publishing an
already-published digest is a no-op that keeps the first artifact:
content addressing guarantees both are identical, so a slow worker
racing a reclaimed lease is harmless.

:meth:`ShardStore.load` requires the recorded checksum and verifies the
payload before parsing it; any damage raises
:exc:`~repro.store.integrity.ArtifactCorruptionError`, and the journal
quarantines the shard into its own ``quarantine/`` and re-runs it
(:meth:`~repro.fabric.journal.CampaignJournal.heal_artifact`).

Undetected examples are fault-object tuples from arbitrary (possibly
user-registered) scenarios, so they ride as a pickle blob inside the
``.npz`` — the counts that drive merging stay plain integer arrays.
"""

from __future__ import annotations

import io
import pickle
import shutil
from pathlib import Path

import numpy as np

from repro.sim.campaign import CampaignResult
from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    ArtifactCorruptionError,
    ArtifactDirectory,
    publish_dir,
    read_npz,
    stage_dir,
    write_durable,
)

from repro.fabric.descriptors import ShardDescriptor

#: The arrays a shard's ``result.npz`` holds.
_RESULT_KEYS = ("counts", "undetected_trials", "examples")


class ShardStore(ArtifactDirectory):
    """Content-addressed store of published :class:`CampaignResult` shards."""

    MARKER_KEYS = ("checksum",)

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
        examples = pickle.dumps(list(result.undetected_examples))
        buffer = io.BytesIO()
        np.savez(
            buffer,
            counts=np.array(
                [result.num_faults, result.trials, result.detected],
                dtype=np.int64,
            ),
            undetected_trials=np.array(result.undetected_trials, dtype=np.int64),
            examples=np.frombuffer(examples, dtype=np.uint8),
        )
        tmp = stage_dir(final)
        try:
            checksum = write_durable(tmp / "result.npz", buffer.getvalue())
            publish_dir(
                tmp,
                final,
                {
                    "version": STORE_FORMAT_VERSION,
                    "digest": descriptor.digest,
                    "num_faults": descriptor.num_faults,
                    "shard": descriptor.shard,
                    "trials": descriptor.trials,
                    "detected": result.detected,
                    "worker": worker,
                    "elapsed": float(elapsed),
                    "checksum": checksum,
                },
            )
        finally:
            if tmp.exists():  # pragma: no cover - crash-path cleanup
                shutil.rmtree(tmp)
        return final

    def load(self, digest: str) -> CampaignResult:
        """Materialize one published shard, bit-identical to the publish.

        Verifies ``result.npz`` against the checksum recorded at publish,
        on exactly the bytes parsed.  A mismatch, a damaged ``meta.json``
        or an unparseable payload raises :exc:`ArtifactCorruptionError` —
        the journal runner converts that into quarantine-and-resimulate
        rather than ever merging a corrupt shard.
        """
        path = self.path_for(digest) / "result.npz"
        arrays = read_npz(path, self.meta(digest)["checksum"], _RESULT_KEYS)
        try:
            examples = pickle.loads(arrays["examples"].tobytes())
        except (pickle.UnpicklingError, EOFError) as exc:
            raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")
        num_faults, trials, detected = (int(v) for v in arrays["counts"])
        return CampaignResult(
            num_faults=num_faults,
            trials=trials,
            detected=detected,
            undetected_examples=examples,
            undetected_trials=[int(t) for t in arrays["undetected_trials"]],
        )
