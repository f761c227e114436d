"""Sharded, process-parallel fault-injection campaigns.

The section IV experiment is embarrassingly parallel: trials are
independent chips.  The runner splits a campaign into fixed-size logical
shards, seeds each shard's RNG by mixing (seed, fault count, shard index)
through the shared splitmix64 finalizer (:mod:`repro.sim.seeding`) — never
by worker identity — and merges shard results in shard order.  Because the
shard structure is a function of the *trial count* alone, the aggregated
:class:`CampaignResult` is bit-identical whatever ``workers`` is; a pool
only changes wall-clock.

The array is compiled into a
:class:`~repro.sim.kernel.ReachabilityKernel` **once** per campaign, by
the :class:`~repro.context.ExecutionContext` the caller passes (or a
fresh one).  Without a store the kernel rides to every shard pickled
inside the payload; when the session has a store it is persisted through
the :class:`~repro.store.KernelStore` instead and the payload carries
only the artifact *path* — each worker process loads the flat arrays once
and memoizes them across its shards, so wide sweeps stop serializing a
kernel per task.  Scenario objects and arrays ride to the workers via pickling,
so custom scenarios must be defined at module top level (the registered
ones are).  The fault universe
(:func:`~repro.sim.campaign.campaign_universe`) is derived once per sweep
and rides in every shard payload, so no shard re-derives it.

With ``journal_dir=`` set, the *identical* shard structure runs through
the campaign fabric (:mod:`repro.fabric`) instead of a transient pool:
every shard is a content-addressed descriptor, completed shards publish
atomically into the journal, and a killed run resumes from the last
published shard — with any worker count, since the merge reads published
shards in canonical order.  Its per-shard bookkeeping is a heartbeat
``utime``, a lease link, an attempt record and the shard publish; the
shard addresses are computed once per campaign and the universe once per
fabric worker.  The no-journal path remains the in-memory fast case.

A fault count may appear once per sweep: a repeated ``k`` raises
:class:`ValueError` on both paths.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.campaign import (
    CampaignResult,
    _run_trials,
    campaign_universe,
    merge_shards,
)
from repro.sim.kernel import ReachabilityKernel
from repro.sim.seeding import mix_seed as _mix_seed

#: Trials per logical shard.  Small enough that modest campaigns still fan
#: out, large enough that per-task pickling stays negligible.
SHARD_TRIALS = 50

#: Per-process kernel memo for path-shipped payloads: worker processes
#: survive across shards, so each loads a given artifact exactly once.
# repro: ignore[R7] -- deliberate per-process cache: populated only inside a worker, keyed by artifact path, never shared across processes
_KERNEL_MEMO: dict[str, ReachabilityKernel] = {}

#: Per-process session memo for path-shipped payloads: shards carrying the
#: same artifact path share one ExecutionContext, so evaluator scenario
#: pools (and any dictionary warm state) persist across a worker's shards.
# repro: ignore[R7] -- deliberate per-process cache: populated only inside a worker, keyed by artifact path, never shared across processes
_CONTEXT_MEMO: dict = {}


def _resolve_kernel(fpva, kernel):
    """Materialize a payload's kernel spec inside the worker.

    Path-shipped kernels are loaded once per process and reused; the
    memoized kernel's own (unpickled) array object is returned alongside so
    the simulator's compiled-for-this-array identity check holds across
    shards that arrived in different payloads.
    """
    if not isinstance(kernel, str):
        return fpva, kernel
    cached = _KERNEL_MEMO.get(kernel)
    if cached is None:
        from pathlib import Path

        from repro.store import ArtifactCorruptionError, KernelStore

        try:
            cached = KernelStore.load_file(fpva, kernel)
        except ArtifactCorruptionError as error:
            # A corrupt shipped artifact must not poison every shard this
            # worker runs: quarantine it and recompile from the array —
            # get_or_compile republishes, so later workers warm-load the
            # healed artifact instead of re-paying the compile.
            store = KernelStore(Path(kernel).parent)
            store.heal(fpva, error)
            cached = store.get_or_compile(fpva)
        _KERNEL_MEMO[kernel] = cached
    return cached.fpva, cached


def _shard_context(fpva, mode, kernel):
    """The session a shard runs under, memoized for path-shipped kernels.

    Shards whose payloads name the same persisted kernel artifact share
    one :class:`~repro.context.ExecutionContext` per worker process, so
    the session's evaluator scenario pools survive across shards instead
    of re-deduplicating per task.  Safe for bit-identity: shard results
    are a pure function of the payload's explicit seed (``run_trials``
    never consults the context's own seed).  Object-shipped kernels (no
    store) arrive as a fresh pickled copy per payload and keep a fresh
    context, exactly as before.
    """
    from repro.context import ExecutionContext

    if mode == "legacy":
        return ExecutionContext(fpva, engine="object")
    if isinstance(kernel, str):
        context = _CONTEXT_MEMO.get(kernel)
        if context is None:
            fpva, resolved = _resolve_kernel(fpva, kernel)
            context = _CONTEXT_MEMO[kernel] = ExecutionContext(
                fpva, kernel=resolved
            )
        return context
    fpva, resolved = _resolve_kernel(fpva, kernel)
    return ExecutionContext(fpva, kernel=resolved)


def _run_shard(payload) -> CampaignResult:
    (fpva, vectors, num_faults, trials, shard_seed, keep_undetected,
     scenario, universe, mode, kernel) = payload
    shard_context = _shard_context(fpva, mode, kernel)
    return _run_trials(
        shard_context.fpva, vectors, num_faults, trials, shard_seed,
        keep_undetected, scenario, universe, shard_context,
    )


def _shard_payloads(
    fpva,
    vectors,
    num_faults,
    trials,
    seed,
    keep_undetected,
    scenario,
    universe,
    shard_trials,
    mode,
    kernel,
):
    payloads = []
    shard = 0
    remaining = trials
    while remaining > 0:
        size = min(shard_trials, remaining)
        payloads.append(
            (
                fpva,
                vectors,
                num_faults,
                size,
                _mix_seed(seed, num_faults, shard),
                keep_undetected,
                scenario,
                universe,
                mode,
                kernel,
            )
        )
        remaining -= size
        shard += 1
    return payloads


def _merge(
    num_faults: int, shards: Sequence[CampaignResult], keep_undetected: int
) -> CampaignResult:
    """Merge shard results given *in shard order*.

    Delegates to :func:`repro.sim.campaign.merge_shards`, which sorts
    example candidates by campaign-global ``(shard, trial)`` before
    truncating to ``keep_undetected`` — the selection is therefore a pure
    function of shard contents, never of arrival or resume order (the
    pre-fabric version took examples first-come, which only happened to
    be deterministic because this runner always merged in shard order).
    """
    return merge_shards(num_faults, list(enumerate(shards)), keep_undetected)


def _run_journaled(
    fpva,
    vectors,
    fault_counts,
    trials,
    seed,
    include_control_leaks,
    keep_undetected,
    scenario,
    shard_trials,
    mode,
    kernel,
    workers,
    journal_dir,
    resume,
):
    """The fabric path shared by the journaled campaign and sweep."""
    from repro.fabric import CampaignSpec, run_journaled_sweep

    spec = CampaignSpec(
        fpva=fpva,
        vectors=tuple(vectors),
        fault_counts=tuple(fault_counts),
        trials=trials,
        seed=seed,
        include_control_leaks=include_control_leaks,
        keep_undetected=keep_undetected,
        scenario=scenario,
        shard_trials=shard_trials,
    )
    results, _ = run_journaled_sweep(
        spec,
        journal_dir,
        workers=workers,
        resume=resume,
        mode=mode,
        kernel=kernel,
    )
    return results


def run_campaign(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    num_faults: int,
    trials: int,
    seed: int = 0,
    workers: int = 1,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    shard_trials: int = SHARD_TRIALS,
    context=None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> CampaignResult:
    """Sharded campaign; result is independent of ``workers`` *and* of
    whether the kernel ships by artifact path or by pickle.  ``context``
    supplies the session engine, kernel and store.

    ``journal_dir`` reroutes the identical shard structure through the
    campaign fabric (:mod:`repro.fabric`): shards publish durably as they
    finish, a killed run resumes from the last published shard, and the
    shard space is content-addressed — a sweep touching this ``num_faults``
    against the same (suite, scenario, seed) reuses these shards.  The
    no-journal path stays the in-memory fast case.
    """
    return run_sweep(
        fpva,
        vectors,
        fault_counts=(num_faults,),
        trials=trials,
        seed=seed,
        workers=workers,
        include_control_leaks=include_control_leaks,
        keep_undetected=keep_undetected,
        scenario=scenario,
        shard_trials=shard_trials,
        context=context,
        journal_dir=journal_dir,
        resume=resume,
    )[num_faults]


def run_sweep(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    fault_counts: Sequence[int] = (1, 2, 3, 4, 5),
    trials: int = 200,
    seed: int = 0,
    workers: int = 1,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    shard_trials: int = SHARD_TRIALS,
    context=None,
    journal_dir: str | os.PathLike | None = None,
    resume: bool = False,
) -> dict[int, CampaignResult]:
    """The paper's k-faults sweep, with all (k, shard) tasks in one pool.

    Flattening the sweep before fanning out keeps every worker busy even
    when individual fault counts have few shards.  Per-(k, shard) streams
    come from ``mix_seed(seed, k, shard)`` directly — the fault count is
    mixed in by the finalizer, so no ``seed + k`` arithmetic (whose streams
    collide across sweeps) ever touches the seed.

    ``journal_dir`` reroutes the identical shard structure through the
    campaign fabric: every completed shard publishes atomically into the
    journal, a killed sweep resumes from the last published shard (with
    any worker count — the merge is bit-identical regardless), and
    re-running a finished sweep simulates nothing.  ``resume=True``
    additionally insists the journal already exists.
    """
    from repro.context import ExecutionContext

    fault_counts = tuple(fault_counts)
    if len(set(fault_counts)) != len(fault_counts):
        raise ValueError(f"duplicate fault counts: {fault_counts}")
    mode, kernel = ExecutionContext.resolve(context, fpva).shipping_spec()
    if journal_dir is not None:
        return _run_journaled(
            fpva, vectors, fault_counts, trials, seed,
            include_control_leaks, keep_undetected, scenario, shard_trials,
            mode, kernel, workers, journal_dir, resume,
        )
    universe = campaign_universe(fpva, scenario, include_control_leaks)
    tagged: list[tuple[int, tuple]] = []
    for k in fault_counts:
        for payload in _shard_payloads(
            fpva,
            vectors,
            k,
            trials,
            seed,
            keep_undetected,
            scenario,
            universe,
            shard_trials,
            mode,
            kernel,
        ):
            tagged.append((k, payload))
    if workers <= 1 or len(tagged) <= 1:
        shard_results = [(k, _run_shard(p)) for k, p in tagged]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(_run_shard, [p for _, p in tagged])
            shard_results = [(k, r) for (k, _), r in zip(tagged, results)]
    by_k: dict[int, list[CampaignResult]] = {k: [] for k in fault_counts}
    for k, shard in shard_results:
        by_k[k].append(shard)
    return {
        k: _merge(k, shards, keep_undetected) for k, shards in by_k.items()
    }
