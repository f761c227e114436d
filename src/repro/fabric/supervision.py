"""Shard supervision: durable attempt counts, poison quarantine, heartbeats.

The journal's lease protocol makes crashes *safe*; this ledger makes
them *diagnosable and bounded*.  Three durable record families live
alongside the journal's leases, all plain JSON files under the journal
root:

``attempts/<digest>.json``
    How many times the shard has been claimed for execution, plus the
    recorded failures.  The count is incremented **at claim time** (not
    at failure time), so a worker that is SIGKILLed — or wedges — mid
    shard still burns an attempt: a workload that reliably kills its
    worker converges on the poison threshold no matter how it kills.
    Increments happen while holding the shard's lease, so the
    read-modify-replace is single-writer by construction.

``quarantine/<digest>.poison.json``
    The diagnostic record of a poisoned shard: one whose attempt budget
    is exhausted.  A quarantined shard is skipped by every claim loop —
    never retried forever, never silently merged — until an operator
    (or the corruption healer) requeues it.  The same ``quarantine/``
    directory receives corrupt shard *artifacts* moved out of the store
    by :meth:`CampaignJournal.heal_artifact`, so one directory holds all
    the evidence.

``heartbeats/<instance>.json``
    Liveness beacons.  Each journal instance carries a unique id; its
    leases name that id and its workers re-beat at every drain-loop
    transition.  Lease staleness then distinguishes a *hung* worker
    (alive pid, stale heartbeat — reclaim) from a merely *slow* one
    (fresh heartbeat — leave alone even past the lease timeout), which
    neither the pid probe nor the claim-time timeout could see.  The
    JSON holds the instance's identity (owner, pid, host); the last beat
    is the file's mtime.  Only the first beat writes the file (staged,
    its time set, renamed onto the new name); every later beat is one
    ``os.utime``, so a beat never renames over an existing file — which
    ext4's ``auto_da_alloc`` answers with a data flush — and a reader
    sees the old time or the new one, never a torn record.  Ages are
    exact to the filesystem's timestamp granularity (nanoseconds on
    ext4, xfs and tmpfs).

Everything takes the journal's injectable clock, so retry/poison/
heartbeat semantics are unit-testable without sleeping.
"""

from __future__ import annotations

import json
import os
import socket
from pathlib import Path
from typing import Callable

from repro.fabric.descriptors import ShardDescriptor
from repro.fabric.retry import DEFAULT_MAX_ATTEMPTS, RetryPolicy

#: Cap on per-shard failure records kept in the attempts ledger (the
#: budget is small, but a requeued shard keeps its history).
MAX_RECORDED_FAILURES = 20


def atomic_write_json(
    path: Path, payload: dict, *, mtime_ns: int | None = None
) -> None:
    """Replace ``path`` with ``payload`` (indented, keys sorted) by a rename.

    A reader sees the old record or the new one, never a torn one.  The
    journal's ``campaign.json`` goes through here too.  No fsync: the
    ledger writes an attempt record for every shard, and an fsync there
    would tax every journaled sweep.
    """
    tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}")
    with open(tmp, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    if mtime_ns is not None:
        os.utime(tmp, ns=(mtime_ns, mtime_ns))
    os.replace(tmp, path)


def _read_json(path: Path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None
    except (json.JSONDecodeError, OSError):  # pragma: no cover - defensive
        return None


class SupervisionLedger:
    """Durable attempt/quarantine/heartbeat records for one journal."""

    def __init__(self, root: str | os.PathLike, *, clock: Callable[[], float]) -> None:
        self.root = Path(root)
        self.attempts_dir = self.root / "attempts"
        self.quarantine_dir = self.root / "quarantine"
        self.heartbeats_dir = self.root / "heartbeats"
        self.clock = clock

    # -- attempt accounting --------------------------------------------------
    def _attempt_path(self, digest: str) -> Path:
        return self.attempts_dir / f"{digest}.json"

    def attempts(self, digest: str) -> int:
        """Durable claim count for one shard (0 when never claimed)."""
        record = _read_json(self._attempt_path(digest))
        return int(record.get("attempts", 0)) if record else 0

    def note_attempt(self, descriptor: ShardDescriptor, worker: str = "") -> int:
        """Record one claim-for-execution; returns the new attempt number.

        Called while holding the shard's lease — the lease serializes
        writers, which is what makes the read-modify-replace safe.
        """
        self.attempts_dir.mkdir(parents=True, exist_ok=True)
        path = self._attempt_path(descriptor.digest)
        record = _read_json(path) or {
            "digest": descriptor.digest,
            "num_faults": descriptor.num_faults,
            "shard": descriptor.shard,
            "attempts": 0,
            "failures": [],
        }
        record["attempts"] = int(record.get("attempts", 0)) + 1
        record["last_worker"] = worker
        record["last_claimed_at"] = self.clock()
        atomic_write_json(path, record)
        return record["attempts"]

    def record_failure(
        self, descriptor: ShardDescriptor, error: BaseException, worker: str = ""
    ) -> int:
        """Append one failure diagnostic to the shard's attempt record."""
        self.attempts_dir.mkdir(parents=True, exist_ok=True)
        path = self._attempt_path(descriptor.digest)
        record = _read_json(path) or {
            "digest": descriptor.digest,
            "num_faults": descriptor.num_faults,
            "shard": descriptor.shard,
            "attempts": 0,
            "failures": [],
        }
        failures = list(record.get("failures", []))[-MAX_RECORDED_FAILURES + 1:]
        failures.append(
            {
                "worker": worker,
                "error": f"{type(error).__name__}: {error}",
                "at": self.clock(),
            }
        )
        record["failures"] = failures
        atomic_write_json(path, record)
        return int(record.get("attempts", 0))

    def clear_attempts(self, digest: str) -> None:
        """Reset one shard's attempt budget (requeue housekeeping)."""
        try:
            self._attempt_path(digest).unlink()
        except FileNotFoundError:
            pass

    # -- poison quarantine ---------------------------------------------------
    def _poison_path(self, digest: str) -> Path:
        return self.quarantine_dir / f"{digest}.poison.json"

    def quarantine_shard(
        self,
        descriptor: ShardDescriptor,
        *,
        reason: str,
        attempts: int,
        worker: str = "",
    ) -> Path:
        """Write the poison diagnostic; the shard stops being claimable."""
        self.quarantine_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "digest": descriptor.digest,
            "num_faults": descriptor.num_faults,
            "shard": descriptor.shard,
            "trials": descriptor.trials,
            "seed": descriptor.seed,
            "attempts": attempts,
            "reason": reason,
            "worker": worker,
            "host": socket.gethostname(),
            "failures": (
                _read_json(self._attempt_path(descriptor.digest)) or {}
            ).get("failures", []),
            "quarantined_at": self.clock(),
        }
        path = self._poison_path(descriptor.digest)
        atomic_write_json(path, record)
        return path

    def is_quarantined(self, digest: str) -> bool:
        return self._poison_path(digest).exists()

    def quarantined(self) -> list[dict]:
        """Every poison record, sorted by (k, shard) — the operator view."""
        if not self.quarantine_dir.is_dir():
            return []
        records = [
            record
            for path in sorted(self.quarantine_dir.glob("*.poison.json"))
            if (record := _read_json(path)) is not None
        ]
        records.sort(key=lambda r: (r.get("num_faults", 0), r.get("shard", 0)))
        return records

    def requeue(self, digest: str) -> bool:
        """Drop a poison record (and the attempt budget it exhausted).

        The shard re-enters the journal as *pending* — the operator's
        heal verb after fixing whatever made the workload lethal.
        Returns whether a record was actually removed.
        """
        self.clear_attempts(digest)
        try:
            self._poison_path(digest).unlink()
        except FileNotFoundError:
            return False
        return True

    # -- heartbeats ----------------------------------------------------------
    def _heartbeat_path(self, instance: str) -> Path:
        return self.heartbeats_dir / f"{instance}.json"

    def beat(self, instance: str, owner: str = "") -> None:
        """Refresh one journal instance's liveness beacon.

        A repeat beat sets the beacon's mtime to the clock and nothing
        else.  A missing beacon (the instance's first beat, or one an
        operator deleted) is written whole, with its time already set,
        under its new name.
        """
        now = round(self.clock() * 1e9)
        path = self._heartbeat_path(instance)
        try:
            os.utime(path, ns=(now, now))
        except FileNotFoundError:
            self.heartbeats_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_json(
                path,
                {
                    "instance": instance,
                    "owner": owner,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                },
                mtime_ns=now,
            )

    def heartbeat_age(self, instance: str) -> float | None:
        """Seconds since the instance last beat, or ``None`` if it never has."""
        try:
            beat = self._heartbeat_path(instance).stat().st_mtime_ns
        except FileNotFoundError:
            return None
        return (round(self.clock() * 1e9) - beat) / 1e9


__all__ = [
    "DEFAULT_MAX_ATTEMPTS",
    "MAX_RECORDED_FAILURES",
    "RetryPolicy",
    "SupervisionLedger",
]
