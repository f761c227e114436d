"""Persistent compiled-artifact store: warm starts for heavy workloads.

Every layer above the simulator compiles something expensive and
deterministic — the reachability kernel's arc table, the fault
dictionary's syndrome table — and before this subsystem existed each
invocation rebuilt them from scratch, which capped dictionary-backed
diagnosis at 8x8.  The store persists those artifacts on disk,
content-addressed by a stable digest of what they were compiled from
(:mod:`repro.store.digest`), so repeated traffic pays the build once:

* :class:`KernelStore` — one ``.npz`` of flat CSR arrays per array
  structure (:mod:`repro.store.kernels`);
* :class:`SuiteStore` — one generated test suite per (array, generator
  settings, solver, generator version) (:mod:`repro.store.suites`);
* :class:`DictionaryStore` — chunked syndrome tables that a streaming
  :class:`~repro.sim.diagnosis.FaultDictionary` build appends to in
  bounded memory (:mod:`repro.store.dictionaries`);
* :class:`ArtifactStore` — the facade bundling them under one cache
  directory (the CLI's ``--cache-dir``).

Cache invalidation is purely by content addressing: any change to the
layout, generator settings, vector suite, fault universe or cardinality
produces a new digest and therefore a cold build; stale entries are never
reinterpreted.

Integrity (:mod:`repro.store.integrity`): every artifact family — kernels,
suites, dictionaries, and the campaign fabric's shards — publishes,
verifies and heals through that one module.  Payloads are written durably and the
completeness marker recording their BLAKE2b checksums lands last;
checksums are required, and loads verify exactly the bytes they parse.
Any damage, payload or marker, raises :class:`ArtifactCorruptionError`,
which callers convert into quarantine-and-rebuild — the corrupt evidence
moves to a ``quarantine/`` directory beside the store and the artifact is
re-derived from source (kernels recompile, suites regenerate, dictionary
chunks re-simulate, campaign shards re-enter their journal as pending).
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.store.dictionaries import DictionaryStore, DictionaryWriter
from repro.store.digest import (
    STORE_FORMAT_VERSION,
    DictionaryKeys,
    dictionary_digest,
    digest_int,
    fault_key,
    kernel_digest,
    layout_digest,
    layout_key,
    suite_digest,
    suite_digests,
    universe_digest,
    vector_key,
)
from repro.store.integrity import (
    ArtifactCorruptionError,
    data_checksum,
    quarantine,
    quarantined_artifacts,
    verify_file,
)
from repro.store.kernels import KernelStore
from repro.store.lineage import (
    DeltaPlan,
    DictionaryInfo,
    GcPlan,
    plan_gc,
    resolve_ancestor,
)
from repro.store.suites import SuiteStore


class ArtifactStore:
    """One cache directory holding every artifact family."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.kernels = KernelStore(self.root / "kernels")
        self.suites = SuiteStore(self.root / "suites")
        self.dictionaries = DictionaryStore(self.root / "dictionaries")

    def __repr__(self) -> str:
        return f"ArtifactStore({str(self.root)!r})"


def as_store(store: "ArtifactStore | str | os.PathLike | None") -> ArtifactStore | None:
    """Coerce ``None`` / path-like / :class:`ArtifactStore` to a store."""
    if store is None or isinstance(store, ArtifactStore):
        return store
    return ArtifactStore(store)


__all__ = [
    "ArtifactCorruptionError",
    "ArtifactStore",
    "DeltaPlan",
    "DictionaryInfo",
    "DictionaryKeys",
    "DictionaryStore",
    "DictionaryWriter",
    "GcPlan",
    "KernelStore",
    "STORE_FORMAT_VERSION",
    "SuiteStore",
    "as_store",
    "data_checksum",
    "dictionary_digest",
    "digest_int",
    "fault_key",
    "kernel_digest",
    "layout_digest",
    "layout_key",
    "plan_gc",
    "quarantine",
    "quarantined_artifacts",
    "resolve_ancestor",
    "suite_digest",
    "suite_digests",
    "universe_digest",
    "vector_key",
]
