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
fresh one; with a store, that is a warm load).  Every shard of a sweep
then runs on one session per process, ``ExecutionContext(fpva,
kernel=kernel)``, built by :func:`_run_shards` and dropped when it
returns, so the shards of a process share one scenario-dedup pool and
the caller's own evaluator memo never grows.  With ``workers <= 1``
that session runs inline over the whole plan; otherwise each of
``min(workers, shards)`` pool tasks takes the round-robin slice
``plan[i::n]`` (the plan is ordered by fault count, so every slice gets
the same mix), and the kernel, array, suite and fault universe are
pickled once per task, never once per shard.  Scenario objects and
arrays ride to the workers via pickling, so custom scenarios must be
defined at module top level (the registered ones are).  The fault
universe (:func:`~repro.sim.campaign.campaign_universe`) is derived
once per sweep.

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


def _run_shards(
    fpva, kernel, vectors, universe, scenario, keep_undetected, shards
) -> list[CampaignResult]:
    """Run ``shard_plan`` rows on one session built from ``kernel``.

    The session lives for this call only.  Sharing it across the rows is
    safe for bit-identity: each shard's result is a pure function of its
    row's seed (``_run_trials`` never consults the session's own seed).
    """
    from repro.context import ExecutionContext

    session = ExecutionContext(fpva, kernel=kernel)
    return [
        _run_trials(
            fpva, vectors, k, size, shard_seed, keep_undetected, scenario,
            universe, session,
        )
        for k, _, size, shard_seed in shards
    ]


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
    """Sharded campaign; result is independent of ``workers`` and of
    whether ``context`` has a store.  ``context`` supplies the kernel.

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
        # Without a caller's session the fabric compiles only if a shard
        # is left to run, so rerunning a finished journal compiles nothing.
        kernel = None
        if context is not None:
            kernel = ExecutionContext.resolve(context, fpva).kernel
        results, _ = run_journaled_sweep(
            spec, journal_dir, workers=workers, resume=resume, kernel=kernel
        )
        return results
    kernel = ExecutionContext.resolve(context, fpva).kernel
    task = (
        fpva, kernel, vectors,
        campaign_universe(fpva, scenario, include_control_leaks),
        scenario, keep_undetected,
    )
    n = min(workers, len(plan))
    if n <= 1:
        shard_results = _run_shards(*task, plan)
    else:
        with ProcessPoolExecutor(max_workers=n) as pool:
            futures = [
                pool.submit(_run_shards, *task, plan[i::n]) for i in range(n)
            ]
            slices = [future.result() for future in futures]
        # Plan row j ran in slice j % n, at position j // n.
        shard_results = [slices[j % n][j // n] for j in range(len(plan))]
    by_k: dict[int, list[tuple[int, CampaignResult]]] = {
        k: [] for k in fault_counts
    }
    for (k, shard, _, _), result in zip(plan, shard_results, strict=True):
        by_k[k].append((shard, result))
    return {
        k: merge_shards(k, shards, keep_undetected)
        for k, shards in by_k.items()
    }
