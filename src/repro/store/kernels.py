"""On-disk persistence for compiled reachability kernels.

One ``.npz`` per array, content-addressed by :func:`kernel_digest`, holding
the destination-sorted CSR arc table (:meth:`ReachabilityKernel.to_arrays`).
Loading installs the arrays verbatim — no graph walk, no sort — so a warm
kernel is bit-identical to a cold compile.

Artifacts are **backend-agnostic**: only the arc table is persisted,
never a propagation tier or its compiled schedule, so a loaded kernel
builds its :mod:`repro.sim.backends` ``tile`` tier on first batched use
(a test may assign the ``word`` tier instead) and replays bit-identical
readings.

A kernel publishes through the store's one protocol
(:mod:`repro.store.integrity`): the ``.npz`` payload and its
``<digest>.meta.json`` sidecar — the completeness marker recording the
payload's BLAKE2b checksum — are each written durably to a staging name,
then renamed into place sidecar first, so a payload is never addressable
without its checksum.  :meth:`KernelStore.load` requires the sidecar and
verifies the bytes it is about to parse; a missing sidecar, a damaged
one or a mismatching payload raises
:exc:`~repro.store.integrity.ArtifactCorruptionError`.  The one caller,
:attr:`repro.context.ExecutionContext.kernel`, converts that into
quarantine (:meth:`KernelStore.heal`) and recompile.
"""

from __future__ import annotations

import io
import os
from pathlib import Path

import numpy as np

from repro.fpva.array import FPVA
from repro.sim.kernel import ReachabilityKernel
from repro.store.digest import STORE_FORMAT_VERSION, kernel_digest
from repro.store.integrity import (
    ArtifactCorruptionError,
    fsync_dir,
    marker_bytes,
    quarantine,
    read_marker,
    read_npz,
    write_durable,
)

#: The arc-table arrays a kernel artifact holds (besides ``version``).
_ARC_KEYS = ("arc_src", "arc_dst", "arc_valve", "arc_edge")


def _meta_path(path: Path) -> Path:
    """The checksum sidecar for one kernel ``.npz`` artifact."""
    return path.with_name(f"{path.stem}.meta.json")


class KernelStore:
    """Content-addressed ``.npz`` store of compiled kernel arc tables."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, fpva: FPVA) -> Path:
        return self.root / f"{kernel_digest(fpva)}.npz"

    def save(self, kernel: ReachabilityKernel) -> Path:
        """Persist a compiled kernel; returns the artifact path."""
        path = self.path_for(kernel.fpva)
        self.root.mkdir(parents=True, exist_ok=True)
        arrays = kernel.to_arrays()
        arrays["version"] = np.array([STORE_FORMAT_VERSION], dtype=np.int64)
        buffer = io.BytesIO()
        np.savez(buffer, **arrays)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        meta_tmp = path.with_name(f".{path.stem}.meta.tmp-{os.getpid()}")
        try:
            meta = {
                "version": STORE_FORMAT_VERSION,
                "digest": path.stem,
                "checksum": write_durable(tmp, buffer.getvalue()),
            }
            write_durable(meta_tmp, marker_bytes(meta))
            # Sidecar first: a crash between the renames leaves checksum
            # metadata without a payload, which load() treats as absent.
            os.replace(meta_tmp, _meta_path(path))
            os.replace(tmp, path)
            fsync_dir(self.root)
        finally:
            for leftover in (tmp, meta_tmp):
                if leftover.exists():  # pragma: no cover - crash-path cleanup
                    leftover.unlink()
        return path

    def load(self, fpva: FPVA) -> ReachabilityKernel | None:
        """The stored kernel for ``fpva``, or ``None`` on a cache miss.

        Raises :exc:`ArtifactCorruptionError` when the artifact exists
        but is damaged — its payload fails the sidecar's checksum, or the
        sidecar itself is missing, torn or lacks the checksum.  Callers
        quarantine (:meth:`heal`) and recompile.
        """
        path = self.path_for(fpva)
        if not path.exists():
            return None
        try:
            meta = read_marker(_meta_path(path), ("checksum",))
        except FileNotFoundError:
            raise ArtifactCorruptionError(
                path, "checksum sidecar is missing"
            ) from None
        return ReachabilityKernel.from_arrays(
            fpva, read_npz(path, meta["checksum"], _ARC_KEYS)
        )

    def heal(self, fpva: FPVA, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt kernel artifact (payload + sidecar)."""
        path = self.path_for(fpva)
        pen = quarantine(self.root, path, error.reason)
        meta_path = _meta_path(path)
        if meta_path.exists():
            quarantine(self.root, meta_path, error.reason)
        return pen
