"""On-disk persistence for compiled reachability kernels.

One ``.npz`` per array, content-addressed by :func:`kernel_digest`, holding
the destination-sorted CSR arc table (:meth:`ReachabilityKernel.to_arrays`).
Loading installs the arrays verbatim — no graph walk, no sort — so a warm
kernel is bit-identical to a cold compile, and the sharded campaign runner
can ship a *path* to worker processes instead of a pickled kernel per
shard payload.

Artifacts are **backend-agnostic**: only the arc table is persisted,
never a propagation backend or its compiled schedule, so a loaded kernel
attaches a :mod:`repro.sim.backends` tier (``tile``, or ``word`` when a
test asks for it) on first batched use and replays bit-identical
readings.

Writes are atomic (temp file + ``os.replace``) and durable (payloads and
the directory entry are fsynced before the rename), so neither a crash
nor a power loss leaves a half-written artifact addressable.  Each
``.npz`` publishes alongside a ``<digest>.meta.json`` sidecar recording
its BLAKE2b content checksum; loads verify the bytes they are about to
parse and raise :exc:`~repro.store.integrity.ArtifactCorruptionError` on
a mismatch — callers convert that into quarantine-and-recompile
(:meth:`KernelStore.get_or_compile` does it for them).  Artifacts
published before checksums existed load unverified, exactly as before.
"""

from __future__ import annotations

import io
import json
import os
import zipfile
from pathlib import Path

import numpy as np

from repro.fpva.array import FPVA
from repro.sim.kernel import ReachabilityKernel
from repro.store.digest import STORE_FORMAT_VERSION, kernel_digest
from repro.store.integrity import (
    ArtifactCorruptionError,
    data_checksum,
    fsync_dir,
    load_json,
    quarantine,
    verify_file,
)


def _meta_path(path: Path) -> Path:
    """The checksum sidecar for one kernel ``.npz`` artifact."""
    return path.with_name(f"{path.stem}.meta.json")


class KernelStore:
    """Content-addressed ``.npz`` store of compiled kernel arc tables."""

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def path_for(self, fpva: FPVA) -> Path:
        return self.root / f"{kernel_digest(fpva)}.npz"

    def has(self, fpva: FPVA) -> bool:
        return self.path_for(fpva).exists()

    def save(self, kernel: ReachabilityKernel) -> Path:
        """Persist a compiled kernel; returns the artifact path."""
        path = self.path_for(kernel.fpva)
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
        arrays = kernel.to_arrays()
        arrays["version"] = np.array([STORE_FORMAT_VERSION], dtype=np.int64)
        meta_tmp = path.with_name(f".{path.stem}.meta.tmp-{os.getpid()}")
        try:
            buffer = io.BytesIO()
            np.savez(buffer, **arrays)
            payload = buffer.getvalue()
            with open(tmp, "wb") as fh:
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            meta = {
                "version": STORE_FORMAT_VERSION,
                "digest": kernel_digest(kernel.fpva),
                "checksum": data_checksum(payload),
            }
            with open(meta_tmp, "w") as fh:
                json.dump(meta, fh, indent=2, sort_keys=True)
                fh.flush()
                os.fsync(fh.fileno())
            # Sidecar first: a crash between the renames leaves checksum
            # metadata without a payload, which has() treats as absent.
            os.replace(meta_tmp, _meta_path(path))
            os.replace(tmp, path)
            fsync_dir(self.root)
        finally:
            for leftover in (tmp, meta_tmp):
                if leftover.exists():  # pragma: no cover - crash-path cleanup
                    leftover.unlink()
        return path

    @staticmethod
    def load_file(fpva: FPVA, path: str | os.PathLike) -> ReachabilityKernel:
        """Rebuild a kernel for ``fpva`` from a stored arc table.

        Verifies the artifact's BLAKE2b checksum (when its sidecar
        exists) against exactly the bytes parsed; raises
        :exc:`ArtifactCorruptionError` on mismatch or an unparseable
        payload instead of crashing inside :mod:`numpy`.
        """
        path = Path(path)
        expected = None
        meta_path = _meta_path(path)
        if meta_path.exists():
            meta = load_json(meta_path)
            expected = meta.get("checksum")
        payload = verify_file(path, expected)
        try:
            with np.load(io.BytesIO(payload)) as data:
                if int(data["version"][0]) != STORE_FORMAT_VERSION:
                    raise ValueError(
                        f"kernel artifact {path} has an unsupported format version"
                    )
                arrays = {
                    k: data[k]
                    for k in ("arc_src", "arc_dst", "arc_valve", "arc_edge")
                }
        except (zipfile.BadZipFile, KeyError, OSError) as exc:
            raise ArtifactCorruptionError(path, f"unparseable payload: {exc}")
        return ReachabilityKernel.from_arrays(fpva, arrays)

    def load(self, fpva: FPVA) -> ReachabilityKernel | None:
        """The stored kernel for ``fpva``, or ``None`` on a cache miss.

        Raises :exc:`ArtifactCorruptionError` when the artifact exists
        but fails verification — callers quarantine and recompile (see
        :meth:`get_or_compile` / :meth:`heal`).
        """
        path = self.path_for(fpva)
        if not path.exists():
            return None
        return self.load_file(fpva, path)

    def heal(self, fpva: FPVA, error: ArtifactCorruptionError) -> Path | None:
        """Quarantine one corrupt kernel artifact (payload + sidecar)."""
        path = self.path_for(fpva)
        pen = quarantine(self.root, path, error.reason)
        meta_path = _meta_path(path)
        if meta_path.exists():
            quarantine(self.root, meta_path, error.reason)
        return pen

    def get_or_compile(self, fpva: FPVA) -> ReachabilityKernel:
        """Warm-load the kernel, compiling and persisting on first use.

        A corrupt stored artifact is quarantined and recompiled from the
        array — self-healing, never served.
        """
        try:
            kernel = self.load(fpva)
        except ArtifactCorruptionError as error:
            self.heal(fpva, error)
            kernel = None
        if kernel is None:
            kernel = ReachabilityKernel(fpva)
            self.save(kernel)
        return kernel
