"""Draining a campaign journal: workers, supervision, and the healing merge.

The execution model is deliberately simple — every worker, in-process or
pooled, runs the same loop::

    beat -> claim -> burn attempt -> simulate -> publish (atomic) -> release

against one shared :class:`~repro.fabric.journal.CampaignJournal`.  All
coordination is the journal's lease protocol, so any number of
independent *processes* (not just this pool's — anything pointed at the
same directory) can drain concurrently, crash, and resume; the merge
only ever reads published shard artifacts in canonical ``(k, shard)``
order, which is what keeps the aggregate bit-identical to the
uninterrupted ``workers=1`` run regardless of worker count, crash point,
or resume order.

Two supervision layers sit on that loop:

* **Bounded retries with poison quarantine.**  A shard's attempt count
  is burned durably at claim time, so a workload that throws, hangs, or
  kills its worker all converge on the same budget.  A failed attempt
  releases the lease and retries after an exponential backoff with
  deterministic jitter (:mod:`repro.fabric.retry`); once the budget is
  exhausted the shard is *quarantined* with a diagnostic record — never
  retried forever, never silently merged — and reported in
  :class:`DrainStats` / the CLI ``--json`` payload.

* **Integrity healing at merge.**  Every shard load verifies its content
  checksum; a corrupt artifact is quarantined out of the store
  (:meth:`CampaignJournal.heal_artifact`) — which turns the shard
  *pending* again — and the runner re-drains and re-merges, bounded by
  ``MAX_HEAL_ROUNDS``.  Corrupt bytes therefore never reach a merged
  result; they are replaced by a fresh simulation that is bit-identical
  by the shard's content addressing.

Every worker runs its shards, one at a time, through
:func:`~repro.sim.campaign.run_shards` on one
:class:`~repro.sim.kernel.BatchEvaluator` of its own.  A sweep compiles
the kernel under it at most once, in the calling process, and hands
each pool process the kernel object with its drain task: no kernel is
pickled per shard, and no kernel path crosses a process boundary.

:class:`ShardWorker` exposes a :meth:`~ShardWorker.checkpoint` hook at
each named point of its loop (``pre-claim``, ``mid-simulate``,
``post-publish``) — a no-op here, overridden by the crash-injection test
harness to kill execution at exactly the transition under test.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Callable, Sequence

from repro.context import ExecutionContext
from repro.sim.campaign import (
    KEEP_UNDETECTED,
    CampaignResult,
    campaign_universe,
    merge_shards,
    run_shards,
)
from repro.sim.kernel import BatchEvaluator
from repro.store.digest import digest_int
from repro.store.integrity import ArtifactCorruptionError

from repro.fabric.descriptors import CampaignSpec, ShardDescriptor
from repro.fabric.journal import DEFAULT_LEASE_TIMEOUT, CampaignJournal
from repro.fabric.retry import POLL_POLICY, RetryPolicy

if TYPE_CHECKING:
    from repro.sim.kernel import ReachabilityKernel

#: Corruption-healing rounds before the runner gives up: each round can
#: only be forced by *new* corruption appearing between merges, so more
#: than a few rounds means the storage itself is actively dying.
MAX_HEAL_ROUNDS = 5


@dataclass(frozen=True)
class DrainStats:
    """What one :func:`run_journaled_sweep` invocation actually did."""

    total: int          #: shards in the campaign
    executed: int       #: shards this invocation simulated and published
    cache_hits: int     #: shards already published before this invocation
    reclaimed: int      #: stale leases reclaimed along the way
    workers: int
    retried: int = 0    #: shard attempts that were retries after a failure
    healed: int = 0     #: corrupt artifacts quarantined and re-published
    #: Poison diagnostic records of shards whose attempt budget is
    #: exhausted — non-empty means the sweep completed *degraded*.
    quarantined: tuple = field(default=())

    @property
    def degraded(self) -> bool:
        """Whether quarantined shards are missing from the merge."""
        return bool(self.quarantined)

    def summary(self) -> str:
        text = (
            f"{self.executed} executed, {self.cache_hits} cached, "
            f"{self.reclaimed} lease(s) reclaimed"
        )
        if self.retried:
            text += f", {self.retried} retried"
        if self.healed:
            text += f", {self.healed} healed"
        if self.quarantined:
            text += f", {len(self.quarantined)} QUARANTINED"
        text += f" ({self.total} shards, {self.workers} worker(s))"
        return text


class ShardWorker:
    """One supervised drain loop over a journal.

    ``order`` is the claim preference (typically this worker's round-robin
    slice followed by everyone else's, for work stealing); the journal's
    lease protocol arbitrates every claim, so preferences only shape wall
    clock.  Every shard runs on one evaluator per worker, built on
    ``kernel`` with the first shard, along with the spec's fault
    universe; with ``kernel=None`` the worker compiles its own.

    ``retry`` bounds how this worker treats a shard whose simulation
    raises: the lease is released, the failure recorded durably, and the
    shard retried after a deterministic-jitter backoff — until the
    shard's durable attempt count (burned at claim time, so crashes
    count too) exhausts the budget, at which point the shard is
    quarantined with a diagnostic record instead of run.  ``sleep`` is
    injectable so supervision tests never wait.
    """

    def __init__(
        self,
        journal: CampaignJournal,
        spec: CampaignSpec,
        order: Sequence[ShardDescriptor],
        *,
        worker_id: str = "w0",
        kernel: "ReachabilityKernel | None" = None,
        retry: RetryPolicy | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.journal = journal
        self.spec = spec
        self.order = list(order)
        self.worker_id = worker_id
        self.kernel = kernel
        self.retry = retry if retry is not None else RetryPolicy()
        self.sleep = sleep
        self.executed = 0
        #: Attempts this worker ran that were retries of a failed shard.
        self.retried = 0
        #: Digests this worker parked as poison.
        self.quarantined: list[str] = []

    def checkpoint(self, point: str, descriptor: ShardDescriptor | None) -> None:
        """Crash-injection seam; the production worker never acts here."""

    @cached_property
    def _evaluator(self) -> BatchEvaluator:
        """The evaluator every shard of this worker runs on, bound to the
        spec's fault universe."""
        kernel = ExecutionContext(self.spec.fpva, kernel=self.kernel).kernel
        return BatchEvaluator(
            kernel,
            self.spec.vectors,
            campaign_universe(self.spec.fpva, self.spec.scenario),
        )

    def run_shard(self, descriptor: ShardDescriptor) -> CampaignResult:
        (result,) = run_shards(
            self._evaluator,
            self.spec.scenario,
            [(descriptor.num_faults, descriptor.trials, descriptor.seed)],
        )
        return result

    def drain(self) -> int:
        """Claim-and-run until nothing claimable remains; returns the
        number of shards this worker executed."""
        pending = list(self.order)
        while True:
            self.journal.beat()
            self.checkpoint("pre-claim", None)
            descriptor = self.journal.claim(pending)
            if descriptor is None:
                return self.executed
            pending.remove(descriptor)
            prior = self.journal.attempts(descriptor.digest)
            if self.retry.exhausted(prior):
                # Budget burned by earlier attempts — failed here, or
                # claimed by workers that never published (killed/hung).
                # Park it with the evidence instead of running it again.
                self.journal.quarantine_shard(
                    descriptor,
                    reason=(
                        f"poison shard: {prior} attempt(s) without a "
                        f"publish (budget {self.retry.max_attempts})"
                    ),
                    attempts=prior,
                    worker=self.worker_id,
                )
                self.journal.release(descriptor)
                self.quarantined.append(descriptor.digest)
                continue
            attempt = self.journal.note_attempt(descriptor, worker=self.worker_id)
            if attempt > 1:
                self.retried += 1
                self.retry.wait(
                    attempt - 1,
                    key=digest_int(descriptor.digest),
                    sleep=self.sleep,
                )
            self.checkpoint("mid-simulate", descriptor)
            t0 = time.perf_counter()
            try:
                result = self.run_shard(descriptor)
            # repro: ignore[R5] -- supervision boundary: ANY workload failure (corruption included) must be recorded and retried under the attempt budget, never crash the drain
            except Exception as error:
                # The workload, not the fabric, failed: record the
                # diagnostic, free the lease, and let the claim loop
                # retry it (or quarantine it at budget exhaustion).
                self.journal.record_failure(
                    descriptor, error, worker=self.worker_id
                )
                self.journal.release(descriptor)
                pending.append(descriptor)
                continue
            elapsed = time.perf_counter() - t0
            self.journal.publish_result(
                descriptor, result, worker=self.worker_id, elapsed=elapsed
            )
            self.checkpoint("post-publish", descriptor)
            self.journal.release(descriptor)
            self.executed += 1


def _round_robin(
    remaining: Sequence[ShardDescriptor], n: int
) -> list[list[ShardDescriptor]]:
    """Worker ``i``'s own queue: the slice ``remaining[i::n]``."""
    return [list(remaining[i::n]) for i in range(n)]


def _stealing_order(
    queue: Sequence[ShardDescriptor], everything: Sequence[ShardDescriptor]
) -> list[ShardDescriptor]:
    """A worker's claim preference: its own queue, then everyone else's."""
    mine = {d.digest for d in queue}
    return list(queue) + [d for d in everything if d.digest not in mine]


def _drain_process(
    journal_root: str,
    spec: CampaignSpec,
    worker_id: str,
    preferred: list[str],
    kernel: "ReachabilityKernel",
    lease_timeout: float,
    retry: RetryPolicy,
) -> tuple[int, int, int]:
    """Pool-worker entry point: drain with a process-local journal."""
    journal = CampaignJournal(
        journal_root, lease_timeout=lease_timeout, owner=worker_id
    )
    descriptors = spec.shards()
    by_digest = {d.digest: d for d in descriptors}
    queue = [by_digest[g] for g in preferred if g in by_digest]
    worker = ShardWorker(
        journal,
        spec,
        _stealing_order(queue, descriptors),
        worker_id=worker_id,
        kernel=kernel,
        retry=retry,
    )
    executed = worker.drain()
    return executed, journal.reclaimed, worker.retried


def _unpublished(descriptor: ShardDescriptor) -> RuntimeError:
    return RuntimeError(
        f"shard {descriptor.digest} (k={descriptor.num_faults}, "
        f"shard={descriptor.shard}) is not published yet"
    )


def load_sweep(
    journal: CampaignJournal, spec: CampaignSpec
) -> dict[int, CampaignResult]:
    """Merge every published shard in canonical order.

    Every shard must be published and verify cleanly: an unpublished
    shard raises :class:`RuntimeError` and a corrupt one propagates
    :exc:`~repro.store.integrity.ArtifactCorruptionError` untouched —
    use :func:`run_journaled_sweep` for the quarantine-and-heal loop.
    """
    results, missing, corrupt = _load_merging(journal, spec)
    if corrupt:
        raise corrupt[0][1]
    if missing:
        raise _unpublished(missing[0])
    return results


def _load_merging(
    journal: CampaignJournal, spec: CampaignSpec
) -> tuple[
    dict[int, CampaignResult],
    list[ShardDescriptor],
    list[tuple[ShardDescriptor, ArtifactCorruptionError]],
]:
    """One merge pass: results per k, plus what could not be merged.

    Corrupt loads are collected (not raised) so the caller can
    quarantine and heal them all in one re-drain instead of discovering
    them one crash at a time.  Quarantined (poison) shards count as
    *missing*; the caller decides whether that is fatal.
    """
    out: dict[int, CampaignResult] = {}
    missing: list[ShardDescriptor] = []
    corrupt: list[tuple[ShardDescriptor, ArtifactCorruptionError]] = []
    for k in spec.fault_counts:
        shards = []
        for descriptor in spec.shards_for(k):
            if not journal.store.has(descriptor.digest):
                missing.append(descriptor)
                continue
            try:
                shards.append(
                    (descriptor.shard, journal.store.load(descriptor.digest))
                )
            except ArtifactCorruptionError as error:
                corrupt.append((descriptor, error))
        out[k] = merge_shards(k, shards, KEEP_UNDETECTED)
    return out, missing, corrupt


def run_journaled_sweep(
    spec: CampaignSpec,
    journal_dir: str | os.PathLike,
    *,
    workers: int = 1,
    resume: bool = False,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    clock: Callable[[], float] = time.time,
    kernel: "ReachabilityKernel | None" = None,
    worker_cls: type[ShardWorker] = ShardWorker,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[dict[int, CampaignResult], DrainStats]:
    """Drain (or resume) one campaign's journal and merge the result.

    Re-invoking on a finished journal simulates nothing and reports every
    shard as a cache hit; a killed run resumes from the last published
    shard, with stale leases reclaimed on the way.  The pool starts
    ``n = min(workers, unfinished shards)`` processes; worker ``i``
    prefers the round-robin slice ``remaining[i::n]`` of the unfinished
    shards, then steals from everyone else's; the lease protocol
    arbitrates every claim.  :attr:`DrainStats.workers` reports the
    requested ``workers``.  ``worker_cls`` is the crash-injection seam
    (single-process drains only).

    ``kernel`` is the compiled kernel every worker's evaluator runs on;
    without one, the sweep compiles it once, in this process, and only
    if a shard is left to run.  Each pool process receives it pickled
    once, with its drain task.

    Supervision: a shard whose workload fails is retried with bounded
    exponential backoff (``retry``, default :class:`RetryPolicy`; a budget
    below one attempt raises :class:`ValueError`) and quarantined
    with a diagnostic record once its durable attempt budget is gone; a
    published artifact that fails checksum verification at merge time is
    quarantined out of the store and healed by re-simulation.  The
    returned :class:`DrainStats` reports retried/healed/quarantined, and
    :attr:`DrainStats.degraded` flags a merge that is missing poison
    shards.

    ``resume=True`` insists the journal already exists (guarding against
    a mistyped ``--journal-dir`` silently starting a fresh campaign).
    """
    if retry is None:
        retry = RetryPolicy()
    if retry.max_attempts < 1:
        raise ValueError(
            f"retry.max_attempts must be at least 1, not {retry.max_attempts}"
        )
    journal = CampaignJournal(
        journal_dir, lease_timeout=lease_timeout, clock=clock
    )
    if resume and journal.manifest() is None:
        raise FileNotFoundError(
            f"--resume: no campaign journal at {journal.root}"
        )
    journal.ensure(spec)
    descriptors = spec.shards()
    done_before = sum(
        1 for d in descriptors if journal.store.has(d.digest)
    )

    executed = 0
    reclaimed = 0
    retried = 0
    healed = 0

    def _unfinished() -> list[ShardDescriptor]:
        return [
            d
            for d in descriptors
            if not journal.store.has(d.digest)
            and not journal.supervision.is_quarantined(d.digest)
        ]

    def _kernel() -> "ReachabilityKernel":
        # Compiled at most once per sweep, and only once a shard is left.
        nonlocal kernel
        if kernel is None:
            kernel = ExecutionContext(spec.fpva).kernel
        return kernel

    def _drain(use_pool: bool) -> None:
        nonlocal executed, reclaimed, retried
        remaining = _unfinished()
        # No more processes than unfinished shards: the others would each
        # unpickle the spec and the kernel with no shard of their own.
        n = min(workers, len(remaining))
        if use_pool and n > 1:
            queues = _round_robin(remaining, n)
            with ProcessPoolExecutor(max_workers=n) as pool:
                futures = [
                    pool.submit(
                        _drain_process,
                        str(journal.root),
                        spec,
                        f"w{i}",
                        [d.digest for d in queues[i]],
                        _kernel(),
                        lease_timeout,
                        retry,
                    )
                    for i in range(n)
                ]
                try:
                    for future in futures:
                        done, freed, tried = future.result()
                        executed += done
                        reclaimed += freed
                        retried += tried
                except BrokenProcessPool:
                    # A pool worker died hard (SIGKILL/OOM).  The journal
                    # is the source of truth: its leases go stale and its
                    # attempt records survive, so the inline pass below
                    # finishes — or quarantines — whatever was left.
                    pass
        # Inline pass: runs the whole campaign when workers <= 1, and mops
        # up after the pool — anything still unpublished is stale-leased
        # (reclaim and run it here), actively held by a foreign process
        # (wait with backoff for its publish), or newly quarantined.
        waits = 0
        while True:
            undone = _unfinished()
            if not undone:
                break
            worker = worker_cls(
                journal,
                spec,
                undone,
                worker_id="w0",
                kernel=_kernel(),
                retry=retry,
                sleep=sleep,
            )
            executed += worker.drain()
            retried += worker.retried
            if _unfinished():
                waits += 1
                POLL_POLICY.wait(
                    waits, key=digest_int(journal.instance), sleep=sleep
                )

    _drain(use_pool=True)

    # The healing merge: corrupt artifacts are quarantined (turning their
    # shards pending again) and re-simulated, until a round merges clean.
    for _ in range(MAX_HEAL_ROUNDS):
        results, missing, corrupt = _load_merging(journal, spec)
        if not corrupt:
            break
        to_heal = []
        for descriptor, error in corrupt:
            if journal.heal_artifact(descriptor, error) is not None:
                to_heal.append(descriptor)
        _drain(use_pool=False)
        healed += sum(
            1 for d in to_heal if journal.store.has(d.digest)
        )
    else:
        raise ArtifactCorruptionError(
            journal.store.root,
            f"corruption persisted through {MAX_HEAL_ROUNDS} heal rounds",
        )
    for descriptor in missing:
        if not journal.supervision.is_quarantined(descriptor.digest):
            raise _unpublished(descriptor)

    shard_digests = {d.digest for d in descriptors}
    stats = DrainStats(
        total=len(descriptors),
        executed=executed,
        cache_hits=done_before,
        reclaimed=reclaimed + journal.reclaimed,
        workers=workers,
        retried=retried,
        healed=healed,
        quarantined=tuple(
            record
            for record in journal.quarantined()
            if record.get("digest") in shard_digests
        ),
    )
    return results, stats
