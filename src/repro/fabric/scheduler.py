"""Shard-to-worker assignment: a greedy cost model over measured speeds.

Scheduling in the fabric is *advisory*: an assignment orders each
worker's claim preferences, but every claim still goes through the
journal's lease protocol, so a worker whose preferred shard is already
done (or taken) simply moves on — correctness and bit-identical results
never depend on the schedule.  What the schedule buys is wall clock when
workers run at different speeds: a worker measured 3x faster should be
handed 3x the trial volume.

Per-worker throughput profiles are measured, not configured: every
published shard's ``meta.json`` records which worker ran it and how long
it took (the Helix exemplar's profiled-cluster pattern), so a resumed
campaign schedules against the speeds its own workers demonstrated.
:class:`GreedyScheduler` assigns longest-processing-time first onto the
worker with the earliest weighted finish time, in O(n log n).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

from repro.store.integrity import ArtifactCorruptionError

from repro.fabric.descriptors import ShardDescriptor
from repro.fabric.shards import ShardStore

@dataclass(frozen=True)
class WorkerProfile:
    """Measured throughput of one worker identity."""

    worker: str
    trials: int = 0
    elapsed: float = 0.0
    shards: int = 0

    @property
    def throughput(self) -> float:
        """Trials per second; 0 when nothing has been measured yet."""
        return self.trials / self.elapsed if self.elapsed > 0 else 0.0


def measure_profiles(
    store: ShardStore, descriptors: Iterable[ShardDescriptor]
) -> dict[str, WorkerProfile]:
    """Aggregate per-worker throughput from published shard metadata."""
    sums: dict[str, list[float]] = {}
    for descriptor in descriptors:
        if not store.has(descriptor.digest):
            continue
        try:
            meta = store.meta(descriptor.digest)
        except ArtifactCorruptionError:
            # Scheduling is advisory; the healing merge deals with the
            # corrupt artifact itself later.
            continue
        worker = meta.get("worker") or ""
        elapsed = float(meta.get("elapsed") or 0.0)
        if not worker or elapsed <= 0:
            continue
        entry = sums.setdefault(worker, [0.0, 0.0, 0.0])
        entry[0] += int(meta.get("trials") or 0)
        entry[1] += elapsed
        entry[2] += 1
    return {
        worker: WorkerProfile(
            worker=worker,
            trials=int(trials),
            elapsed=elapsed,
            shards=int(shards),
        )
        for worker, (trials, elapsed, shards) in sums.items()
    }


def _speeds(
    workers: Sequence[str], profiles: dict[str, WorkerProfile] | None
) -> list[float]:
    """Relative speed per worker, normalized so unmeasured workers run at
    the fleet's median measured speed (never zero — a fresh worker must
    still be handed work)."""
    profiles = profiles or {}
    measured = sorted(
        p.throughput for p in profiles.values() if p.throughput > 0
    )
    default = measured[len(measured) // 2] if measured else 1.0
    speeds = []
    for worker in workers:
        profile = profiles.get(worker)
        speed = profile.throughput if profile and profile.throughput > 0 else default
        speeds.append(speed)
    return speeds


class Scheduler(Protocol):
    """What a shard scheduler is: a named, pure assignment function."""

    name: str

    def assign(
        self,
        descriptors: Sequence[ShardDescriptor],
        workers: Sequence[str],
        profiles: dict[str, WorkerProfile] | None = None,
    ) -> list[list[ShardDescriptor]]:
        ...


class GreedyScheduler:
    """LPT onto the earliest-finishing worker, weighted by measured speed."""

    name = "greedy"

    def assign(
        self,
        descriptors: Sequence[ShardDescriptor],
        workers: Sequence[str],
        profiles: dict[str, WorkerProfile] | None = None,
    ) -> list[list[ShardDescriptor]]:
        speeds = _speeds(workers, profiles)
        loads = [0.0] * len(workers)
        queues: list[list[ShardDescriptor]] = [[] for _ in workers]
        # Stable LPT: ties broken by (k, shard) so the assignment is a
        # pure function of the inputs.
        order = sorted(
            descriptors,
            key=lambda d: (-d.cost, d.num_faults, d.shard),
        )
        for descriptor in order:
            finish = [
                (loads[w] + descriptor.cost) / speeds[w]
                for w in range(len(workers))
            ]
            target = min(range(len(workers)), key=lambda w: (finish[w], w))
            loads[target] += descriptor.cost
            queues[target].append(descriptor)
        # Claim preference within one worker: canonical (k, shard) order,
        # which keeps low-index shards landing early across the fleet.
        for queue in queues:
            queue.sort(key=lambda d: (d.num_faults, d.shard))
        return queues
