"""The durable campaign journal: pending/leased/done over plain files.

Layout of one journal directory::

    <journal_dir>/
        campaign.json            # manifest: campaign digest + parameters
        shards/<digest>/         # ShardStore — *done* is "published here"
        leases/<digest>.json     # live claims (owner, pid, host, claimed_at)
        heartbeats/<instance>.json  # identity JSON; mtime = last beat
        kernels/                 # optional KernelStore for path-shipping

A shard's state is never stored redundantly — it is *derived*:

========  ====================================================
done      its digest is published in the shard store
leased    a fresh lease file exists (and it is not done)
pending   neither
========  ====================================================

which is what makes every crash point safe: dying pre-claim changes
nothing; dying mid-simulate leaves a lease that goes stale and is
reclaimed; dying after the store publish but before the lease release
leaves a *done* shard under a dangling lease, and done always wins.

**Claim protocol.**  A claim atomically creates the lease file via
``os.link`` from a fully-written temp file — hard-link creation fails if
the name exists, so exactly one process wins, and a lease is never
observable half-written.  **Stale reclaim** removes a lease whose holder
is provably gone: its pid is dead on this host, its heartbeat beacon
(``heartbeats/<instance>.json``, touched at every drain-loop transition;
the beacon's mtime is the last beat) has gone stale — which catches a
*hung* worker whose pid is still alive — or, when the holder never beat,
its ``claimed_at`` is older than ``lease_timeout`` (the cross-host
fallback).  A fresh heartbeat conversely *protects* a slow worker's
lease past the claim timeout.  Reclaim itself races safely through
``os.replace`` onto a per-process tombstone name — only one reclaimer's
rename succeeds; everyone then re-contends the fresh claim.

**Supervision** (:mod:`repro.fabric.supervision`) adds two more durable
record families: per-shard attempt counts (incremented at claim time, so
even a SIGKILLed attempt burns budget) and poison-quarantine diagnostics
— a shard whose budget is exhausted is *quarantined*: skipped by every
claim loop, reported in :class:`~repro.fabric.runner.DrainStats`, never
retried forever and never silently merged.  Corrupt published artifacts
are healed through :meth:`CampaignJournal.heal_artifact`: the artifact
moves to ``quarantine/`` and the shard re-enters as pending.

The clock is injectable (``clock=``) so stale-lease, heartbeat and
quarantine semantics are unit testable without sleeping.
"""

from __future__ import annotations

import json
import os
import socket
import time
import uuid
from pathlib import Path
from typing import Callable, Iterable

from repro.sim.campaign import CampaignResult
from repro.store.digest import STORE_FORMAT_VERSION
from repro.store.integrity import ArtifactCorruptionError, quarantine

from repro.fabric.descriptors import CampaignSpec, ShardDescriptor
from repro.fabric.shards import ShardStore
from repro.fabric.supervision import SupervisionLedger

#: Cross-host stale-lease fallback: a lease older than this is presumed
#: abandoned even when its holder's liveness cannot be probed.
DEFAULT_LEASE_TIMEOUT = 300.0

PENDING, LEASED, DONE, QUARANTINED = (
    "pending", "leased", "done", "quarantined",
)


class JournalMismatch(ValueError):
    """The journal directory holds a different campaign's manifest."""


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - exists, owned by another user
        return True
    return True


class CampaignJournal:
    """Tracks one campaign's shard states in a durable directory."""

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
        clock: Callable[[], float] = time.time,
        owner: str | None = None,
    ) -> None:
        self.root = Path(root)
        self.store = ShardStore(self.root / "shards")
        self.leases = self.root / "leases"
        self.lease_timeout = float(lease_timeout)
        self.clock = clock
        self.owner = owner or f"{socket.gethostname()}:{os.getpid()}"
        #: Unique id of this journal *instance* — the heartbeat key its
        #: leases carry.  Never reused across processes or re-opens, so a
        #: resumed run can never refresh a dead predecessor's beacon.
        self.instance = uuid.uuid4().hex[:12]
        #: Durable attempt counts, poison quarantine and heartbeats.
        self.supervision = SupervisionLedger(self.root, clock=clock)
        #: Stale leases this journal reclaimed.
        self.reclaimed = 0

    # -- manifest ------------------------------------------------------------
    @property
    def manifest_path(self) -> Path:
        return self.root / "campaign.json"

    def manifest(self) -> dict | None:
        """The stored manifest, or ``None`` for a fresh directory."""
        try:
            with open(self.manifest_path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return None

    def ensure(self, spec: CampaignSpec) -> dict:
        """Bind this journal to ``spec``, creating the manifest on first use.

        A journal directory holds exactly one campaign; re-opening it with
        different parameters raises :class:`JournalMismatch` instead of
        silently mixing shard spaces.
        """
        manifest = self.manifest()
        if manifest is not None:
            if manifest.get("digest") != spec.digest:
                raise JournalMismatch(
                    f"journal {self.root} holds campaign "
                    f"{manifest.get('digest')!r}, not {spec.digest!r} — "
                    "use a fresh --journal-dir for a different campaign"
                )
            return manifest
        self.root.mkdir(parents=True, exist_ok=True)
        self.leases.mkdir(parents=True, exist_ok=True)
        manifest = {"version": STORE_FORMAT_VERSION, **spec.manifest()}
        tmp = self.manifest_path.with_name(f".campaign.json.tmp-{os.getpid()}")
        with open(tmp, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
        os.replace(tmp, self.manifest_path)
        return manifest

    # -- state queries -------------------------------------------------------
    def done(self, descriptor: ShardDescriptor) -> bool:
        return self.store.has(descriptor.digest)

    def state(self, descriptor: ShardDescriptor) -> str:
        if self.store.has(descriptor.digest):
            return DONE
        if self.supervision.is_quarantined(descriptor.digest):
            return QUARANTINED
        if self._lease_path(descriptor.digest).exists():
            return LEASED
        return PENDING

    # -- leases --------------------------------------------------------------
    def _lease_path(self, digest: str) -> Path:
        return self.leases / f"{digest}.json"

    def _try_acquire(self, digest: str) -> bool:
        """Atomically create the lease file; ``False`` if someone holds it."""
        self.leases.mkdir(parents=True, exist_ok=True)
        payload = {
            "owner": self.owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "instance": self.instance,
            "claimed_at": self.clock(),
        }
        tmp = self.leases / f".{digest}.tmp-{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(payload, fh)
        try:
            os.link(tmp, self._lease_path(digest))
        except FileExistsError:
            return False
        finally:
            tmp.unlink()
        return True

    def _lease_stale(self, digest: str) -> bool:
        """Whether the current holder of ``digest`` is provably gone."""
        try:
            with open(self._lease_path(digest)) as fh:
                lease = json.load(fh)
        except FileNotFoundError:
            return False  # released meanwhile; re-contend via _try_acquire
        except (json.JSONDecodeError, OSError):  # pragma: no cover - defensive
            return True
        if (
            lease.get("host") == socket.gethostname()
            and isinstance(lease.get("pid"), int)
            and lease["pid"] != os.getpid()
            and not _pid_alive(lease["pid"])
        ):
            return True
        # A heartbeat beacon outranks the claim-time timeout both ways: a
        # stale beat marks a *hung* holder (alive pid, wedged drain loop)
        # stale immediately, and a fresh beat protects a slow-but-alive
        # holder's lease past the claim timeout.
        instance = lease.get("instance")
        if instance:
            age = self.supervision.heartbeat_age(instance)
            if age is not None:
                return age > self.lease_timeout
        claimed_at = lease.get("claimed_at", 0.0)
        return (self.clock() - claimed_at) > self.lease_timeout

    def _reclaim(self, digest: str) -> bool:
        """Remove a stale lease; ``True`` if *this* process did the removal."""
        tombstone = self.leases / f".{digest}.reclaim-{os.getpid()}"
        try:
            os.replace(self._lease_path(digest), tombstone)
        except FileNotFoundError:
            return False  # another reclaimer (or the holder) won
        tombstone.unlink()
        self.reclaimed += 1
        return True

    def release(self, descriptor: ShardDescriptor) -> None:
        """Drop a lease (the final step of a completed shard)."""
        try:
            self._lease_path(descriptor.digest).unlink()
        except FileNotFoundError:
            pass  # reclaimed from us, or crash-recovery housekeeping

    # -- supervision ---------------------------------------------------------
    def beat(self) -> None:
        """Refresh this instance's heartbeat (protects its live leases)."""
        self.supervision.beat(self.instance, owner=self.owner)

    def note_attempt(self, descriptor: ShardDescriptor, worker: str = "") -> int:
        """Durably burn one attempt for a claimed shard; the new count."""
        return self.supervision.note_attempt(descriptor, worker or self.owner)

    def attempts(self, digest: str) -> int:
        return self.supervision.attempts(digest)

    def record_failure(
        self, descriptor: ShardDescriptor, error: BaseException, worker: str = ""
    ) -> int:
        return self.supervision.record_failure(
            descriptor, error, worker or self.owner
        )

    def quarantine_shard(
        self,
        descriptor: ShardDescriptor,
        *,
        reason: str,
        attempts: int,
        worker: str = "",
    ) -> Path:
        """Park a poison shard with its diagnostic record."""
        return self.supervision.quarantine_shard(
            descriptor,
            reason=reason,
            attempts=attempts,
            worker=worker or self.owner,
        )

    def quarantined(self) -> list[dict]:
        return self.supervision.quarantined()

    def requeue(self, digest: str) -> bool:
        """Clear a poison record so the shard is claimable again."""
        return self.supervision.requeue(digest)

    def heal_artifact(
        self, descriptor: ShardDescriptor, error: ArtifactCorruptionError
    ) -> Path | None:
        """Quarantine one corrupt *published* shard artifact.

        The artifact directory moves into ``<root>/quarantine/`` with a
        ``.reason.json`` diagnostic; :meth:`done` is then false again, so
        the shard re-enters the journal as pending and heals by being
        re-simulated — the corrupt bytes are never merged.  The attempt
        budget is reset: corruption is a storage fault, not the
        workload's.
        """
        pen = quarantine(
            self.root,
            self.store.path_for(descriptor.digest),
            f"shard {descriptor.label}: {error.reason}",
        )
        self.supervision.clear_attempts(descriptor.digest)
        return pen

    # -- the claim loop ------------------------------------------------------
    def claim(self, descriptors: Iterable[ShardDescriptor]) -> ShardDescriptor | None:
        """Claim the first claimable shard of ``descriptors``, or ``None``.

        Skips *done* shards (releasing any dangling lease a
        post-publish-pre-release crash left behind) and *quarantined*
        shards (poison workloads stay parked until requeued), reclaims
        stale leases, and leaves fresh foreign leases alone.  ``None``
        means every remaining shard is done, quarantined, or actively
        leased elsewhere.
        """
        for descriptor in descriptors:
            if self.done(descriptor):
                self.release(descriptor)  # post-publish crash housekeeping
                continue
            if self.supervision.is_quarantined(descriptor.digest):
                continue
            if self._try_acquire(descriptor.digest):
                # Re-check done *after* winning the lease: the previous
                # holder may have published and released in the window
                # between our done() check and the acquire — a release
                # always follows its publish, so a won lease plus an
                # unpublished store means the shard truly needs running.
                if self.done(descriptor):
                    self.release(descriptor)
                    continue
                return descriptor
            if self._lease_stale(descriptor.digest):
                self._reclaim(descriptor.digest)
                if self._try_acquire(descriptor.digest):
                    if self.done(descriptor):  # slow holder published late
                        self.release(descriptor)
                        continue
                    return descriptor
        return None

    # -- publication ---------------------------------------------------------
    def publish(
        self,
        descriptor: ShardDescriptor,
        result: CampaignResult,
        *,
        worker: str = "",
        elapsed: float = 0.0,
    ) -> None:
        """Atomically publish a completed shard, then release its lease."""
        self.publish_result(descriptor, result, worker=worker, elapsed=elapsed)
        self.release(descriptor)

    def publish_result(
        self,
        descriptor: ShardDescriptor,
        result: CampaignResult,
        *,
        worker: str = "",
        elapsed: float = 0.0,
    ) -> None:
        """The store publish alone (no lease release) — the two-step spelling
        the crash-injection harness drives to model a death between them."""
        self.store.publish(
            descriptor, result, worker=worker or self.owner, elapsed=elapsed
        )
