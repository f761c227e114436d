"""Sharded, process-parallel fault-injection campaigns.

The section IV experiment is embarrassingly parallel: trials are
independent chips.  The runner takes its shards from
:func:`repro.sim.campaign.shard_plan` — fixed-size splits whose RNG
streams mix (seed, fault count, shard index), never worker identity —
and merges them with :func:`~repro.sim.campaign.merge_shards`.  Because
the plan is a function of the *trial count* alone, the aggregated
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

With ``journal_dir=`` set, the *identical* plan runs through the campaign
fabric (:mod:`repro.fabric`) instead of a transient pool: every shard is
a content-addressed descriptor, completed shards publish atomically into
the journal, and a killed run resumes from the last published shard —
with any worker count, since the merge reads published shards in
canonical order.  The no-journal path remains the in-memory fast case:
it addresses nothing and never imports the fabric.

The plan validates the sweep on both paths: a repeated ``k``,
``shard_trials < 1`` or ``trials < 0`` raises :class:`ValueError`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.campaign import (
    SHARD_TRIALS,
    CampaignResult,
    _run_trials,
    campaign_universe,
    merge_shards,
    shard_plan,
)
from repro.sim.kernel import ReachabilityKernel

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


def _shard_context(fpva, kernel):
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
     scenario, universe, kernel) = payload
    shard_context = _shard_context(fpva, kernel)
    return _run_trials(
        shard_context.fpva, vectors, num_faults, trials, shard_seed,
        keep_undetected, scenario, universe, shard_context,
    )


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
    supplies the session kernel and store.

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
    when individual fault counts have few shards.  The shards and their
    ``mix_seed(seed, k, shard)`` streams come from
    :func:`~repro.sim.campaign.shard_plan` — the fault count is mixed in
    by the finalizer, so no ``seed + k`` arithmetic (whose streams collide
    across sweeps) ever touches the seed.

    ``journal_dir`` reroutes the identical shard structure through the
    campaign fabric: every completed shard publishes atomically into the
    journal, a killed sweep resumes from the last published shard (with
    any worker count — the merge is bit-identical regardless), and
    re-running a finished sweep simulates nothing.  ``resume=True``
    additionally insists the journal already exists.
    """
    from repro.context import ExecutionContext

    fault_counts = tuple(fault_counts)
    # Planning validates the sweep on both paths, before any kernel work.
    plan = shard_plan(fault_counts, trials, shard_trials, seed)
    kernel = ExecutionContext.resolve(context, fpva).shipping_spec()
    if journal_dir is not None:
        from repro.fabric import CampaignSpec, run_journaled_sweep

        spec = CampaignSpec(
            fpva=fpva,
            vectors=tuple(vectors),
            fault_counts=fault_counts,
            trials=trials,
            seed=seed,
            include_control_leaks=include_control_leaks,
            keep_undetected=keep_undetected,
            scenario=scenario,
            shard_trials=shard_trials,
        )
        results, _ = run_journaled_sweep(
            spec, journal_dir, workers=workers, resume=resume, kernel=kernel
        )
        return results
    universe = campaign_universe(fpva, scenario, include_control_leaks)
    payloads = [
        (fpva, vectors, k, size, shard_seed, keep_undetected, scenario,
         universe, kernel)
        for k, _, size, shard_seed in plan
    ]
    if workers <= 1 or len(payloads) <= 1:
        shard_results = [_run_shard(payload) for payload in payloads]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            shard_results = list(pool.map(_run_shard, payloads))
    by_k: dict[int, list[tuple[int, CampaignResult]]] = {
        k: [] for k in fault_counts
    }
    for (k, shard, _, _), result in zip(plan, shard_results, strict=True):
        by_k[k].append((shard, result))
    return {
        k: merge_shards(k, shards, keep_undetected)
        for k, shards in by_k.items()
    }
