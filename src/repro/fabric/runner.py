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

from repro.sim.campaign import CampaignResult, campaign_universe, merge_shards
from repro.store.digest import digest_int
from repro.store.integrity import ArtifactCorruptionError

from repro.fabric.descriptors import CampaignSpec, ShardDescriptor
from repro.fabric.journal import DEFAULT_LEASE_TIMEOUT, CampaignJournal
from repro.fabric.retry import DEFAULT_MAX_ATTEMPTS, RetryPolicy
from repro.fabric.scheduler import GreedyScheduler, measure_profiles

if TYPE_CHECKING:
    from repro.sim.faults import Fault
    from repro.sim.kernel import ReachabilityKernel

#: Base re-poll interval while foreign processes still hold fresh leases
#: on the last undone shards; the actual wait backs off from here.
POLL_INTERVAL = 0.1

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

    def report(self) -> dict:
        """JSON-able stats payload (the CLI ``--json`` ``"journal"`` key)."""
        return {
            "total": self.total,
            "executed": self.executed,
            "cache_hits": self.cache_hits,
            "reclaimed": self.reclaimed,
            "workers": self.workers,
            "retried": self.retried,
            "healed": self.healed,
            "degraded": self.degraded,
            "quarantined": list(self.quarantined),
        }


class ShardWorker:
    """One supervised drain loop over a journal.

    ``order`` is the claim preference (typically this worker's scheduler
    queue followed by everyone else's, for work stealing); the journal's
    lease protocol arbitrates every claim, so preferences only shape wall
    clock.  ``kernel`` mirrors the in-memory pool's shard payload: a
    compiled kernel, an artifact path, or ``None`` (compile locally).
    The spec's fault universe is derived once per worker, on its first
    shard.

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
        kernel: "ReachabilityKernel | str | None" = None,
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
    def _universe(self) -> "tuple[Fault, ...]":
        """The spec's fault universe, derived once per worker."""
        spec = self.spec
        return campaign_universe(
            spec.fpva, spec.scenario, spec.include_control_leaks
        )

    def run_shard(self, descriptor: ShardDescriptor) -> CampaignResult:
        from repro.engine.parallel import _run_shard

        spec = self.spec
        return _run_shard(
            (
                spec.fpva,
                spec.vectors,
                descriptor.num_faults,
                descriptor.trials,
                descriptor.seed,
                spec.keep_undetected,
                spec.scenario,
                self._universe,
                self.kernel,
            )
        )

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
    kernel: "ReachabilityKernel | str | None",
    lease_timeout: float,
    retry: RetryPolicy,
) -> tuple[int, int, int, int]:
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
    return executed, journal.reclaimed, worker.retried, len(worker.quarantined)


def _prepare_kernel(
    spec: CampaignSpec,
    kernel: "ReachabilityKernel | str | None",
    journal_root: str | os.PathLike,
    workers: int,
) -> "ReachabilityKernel | str | None":
    """Normalize the kernel spec shipped to workers.

    A pool never pickles a kernel per process when it can ship a path:
    a kernel headed to a multi-process drain goes through a session on
    the journal's own ``kernels/`` store (the journal is durable anyway),
    which warm-loads an artifact already there instead of compiling, and
    persists a new one so processes attached later warm-load it.
    """
    if isinstance(kernel, str) or workers <= 1:
        return kernel
    from repro.context import ExecutionContext

    return ExecutionContext(
        spec.fpva, kernel=kernel, cache_dir=journal_root
    ).shipping_spec()


def load_sweep(
    journal: CampaignJournal,
    spec: CampaignSpec,
    *,
    strict: bool = True,
) -> dict[int, CampaignResult]:
    """Merge every published shard in canonical order.

    With ``strict=True`` (the default) every shard must be published and
    verify cleanly: an unpublished shard raises :class:`RuntimeError`
    and a corrupt one propagates
    :exc:`~repro.store.integrity.ArtifactCorruptionError` untouched —
    use :func:`run_journaled_sweep` for the quarantine-and-heal loop.
    ``strict=False`` merges what is published, silently skipping
    quarantined shards (the degraded operator view).
    """
    results, missing, corrupt = _load_merging(journal, spec)
    if strict:
        if corrupt:
            raise corrupt[0][1]
        if missing:
            descriptor = missing[0]
            raise RuntimeError(
                f"shard {descriptor.digest} (k={descriptor.num_faults}, "
                f"shard={descriptor.shard}) is not published yet"
            )
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
        out[k] = merge_shards(k, shards, spec.keep_undetected)
    return out, missing, corrupt


def run_journaled_sweep(
    spec: CampaignSpec,
    journal_dir: str | os.PathLike,
    *,
    workers: int = 1,
    resume: bool = False,
    lease_timeout: float = DEFAULT_LEASE_TIMEOUT,
    clock: Callable[[], float] = time.time,
    kernel: "ReachabilityKernel | str | None" = None,
    worker_cls: type[ShardWorker] = ShardWorker,
    poll_interval: float = POLL_INTERVAL,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    retry: RetryPolicy | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> tuple[dict[int, CampaignResult], DrainStats]:
    """Drain (or resume) one campaign's journal and merge the result.

    Re-invoking on a finished journal simulates nothing and reports every
    shard as a cache hit; a killed run resumes from the last published
    shard, with stale leases reclaimed on the way.  Pool workers are
    handed greedy longest-processing-time queues over the throughput the
    journal measured for them, and steal from each other freely.
    ``worker_cls`` is the crash-injection seam (single-process drains
    only).

    Supervision: a shard whose workload fails is retried with bounded
    exponential backoff (``retry``/``max_attempts``) and quarantined
    with a diagnostic record once its durable attempt budget is gone; a
    published artifact that fails checksum verification at merge time is
    quarantined out of the store and healed by re-simulation.  The
    returned :class:`DrainStats` reports retried/healed/quarantined, and
    :attr:`DrainStats.degraded` flags a merge that is missing poison
    shards.

    ``resume=True`` insists the journal already exists (guarding against
    a mistyped ``--journal-dir`` silently starting a fresh campaign).
    """
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
    if retry is None:
        retry = RetryPolicy(max_attempts=max_attempts)
    poll = RetryPolicy(
        max_attempts=0, base=poll_interval, growth=1.5,
        max_delay=max(poll_interval, 2.0), jitter=0.25,
    )

    kernel = _prepare_kernel(spec, kernel, journal.root, workers)
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

    def _drain(use_pool: bool) -> None:
        nonlocal executed, reclaimed, retried
        remaining = _unfinished()
        if remaining and use_pool and workers > 1:
            worker_ids = [f"w{i}" for i in range(workers)]
            profiles = measure_profiles(journal.store, descriptors)
            queues = GreedyScheduler().assign(remaining, worker_ids, profiles)
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(
                        _drain_process,
                        str(journal.root),
                        spec,
                        worker_ids[i],
                        [d.digest for d in queues[i]],
                        kernel,
                        lease_timeout,
                        retry,
                    )
                    for i in range(workers)
                ]
                try:
                    for future in futures:
                        done, freed, tried, _ = future.result()
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
                kernel=kernel,
                retry=retry,
                sleep=sleep,
            )
            executed += worker.drain()
            retried += worker.retried
            if _unfinished():
                waits += 1
                poll.wait(waits, key=digest_int(journal.instance), sleep=sleep)

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
            raise RuntimeError(
                f"shard {descriptor.digest} (k={descriptor.num_faults}, "
                f"shard={descriptor.shard}) is not published yet"
            )

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
