"""On-disk persistence for generated test suites.

A suite artifact is a content-addressed directory::

    <root>/<digest>/
        suite.json   # TestSet.to_json(indent=None)
        meta.json    # format version + the payload's checksum; written LAST

The digest (:func:`~repro.store.digest.suite_digest`) names what the
suite was generated *from*: the layout, the generator's resolved
settings, the solver and the generator version.  Commands that only
consume a suite — ``campaign``, ``diagnose``, ``warm`` — therefore load
it instead of re-solving the flow-path and cut-set ILPs.  Vector
``provenance`` is not stored, and nothing after generation reads it.

A suite publishes, verifies and heals through the store's one protocol
(:mod:`repro.store.integrity`).  :meth:`SuiteStore.load` verifies the
payload's checksum on exactly the bytes it parses; any damage — a
mismatch, a damaged marker or a payload that verifies but does not parse
as a suite for the array — raises
:exc:`~repro.store.integrity.ArtifactCorruptionError`, which
:meth:`repro.context.ExecutionContext.suite` converts into
quarantine-and-regenerate.
"""

from __future__ import annotations

import shutil
from pathlib import Path

from repro.core.vectors import TestSet
from repro.fpva.array import FPVA
from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import (
    ArtifactCorruptionError,
    ArtifactDirectory,
    publish_dir,
    stage_dir,
    verify_file,
    write_durable,
)

#: The payload file of a suite artifact.
SUITE_FILE = "suite.json"


class SuiteStore(ArtifactDirectory):
    """Content-addressed store of generated test suites."""

    MARKER_KEYS = ("checksum",)

    def save(self, digest: str, testset: TestSet) -> Path:
        """Publish ``testset`` under ``digest``; returns the artifact path."""
        final = self.path_for(digest)
        tmp = stage_dir(final)
        try:
            payload = testset.to_json(indent=None).encode()
            publish_dir(
                tmp,
                final,
                {
                    "version": STORE_FORMAT_VERSION,
                    "digest": digest,
                    "checksum": write_durable(tmp / SUITE_FILE, payload),
                },
            )
        finally:
            if tmp.exists():  # pragma: no cover - crash-path cleanup
                shutil.rmtree(tmp)
        return final

    def load(self, digest: str, fpva: FPVA) -> TestSet | None:
        """The stored suite for ``fpva``, or ``None`` on a cache miss.

        Raises :exc:`ArtifactCorruptionError` when the artifact exists
        but is damaged; callers quarantine it (:meth:`heal`) and
        regenerate.
        """
        if not self.has(digest):
            return None
        path = self.path_for(digest) / SUITE_FILE
        payload = verify_file(path, self.meta(digest)["checksum"])
        try:
            return TestSet.from_json(fpva, payload)
        except (ValueError, KeyError, TypeError) as exc:
            raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")
