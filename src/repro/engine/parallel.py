"""Sharded, process-parallel fault-injection campaigns.

The section IV experiment is embarrassingly parallel: trials are
independent chips.  :func:`run_sweep` is the one in-process campaign
API: it takes its shards from :func:`repro.sim.campaign.shard_plan` —
fixed-size splits whose RNG streams mix (seed, fault count, shard
index), never worker identity — runs them through
:func:`~repro.sim.campaign.run_shards`, and merges them with
:func:`~repro.sim.campaign.merge_shards`.  Because the plan is a
function of the *trial count* alone, the aggregated
:class:`CampaignResult` is bit-identical whatever ``workers`` is; a pool
only changes wall-clock.  A single fault count is
``run_sweep(..., fault_counts=(k,))[k]``.

The array is compiled into a
:class:`~repro.sim.kernel.ReachabilityKernel` **once** per campaign, by
the :class:`~repro.context.ExecutionContext` the caller passes (or a
fresh one; with a store, that is a warm load).  Every shard of a process
then runs on one :class:`~repro.sim.kernel.BatchEvaluator` on that
kernel, built by :func:`_run_shards` and dropped when it returns, so
the shards of a process share one scenario-dedup pool, are folded and
simulated a batch of whole shards at a time, and the caller's session
holds nothing of the sweep.  With ``workers <= 1`` that
evaluator runs inline over the whole plan; otherwise each of
``min(workers, shards)`` pool tasks takes the round-robin slice
``plan[i::n]`` (the plan is ordered by fault count, so every slice gets
the same mix), and the kernel, suite and fault universe are pickled
once per task, never once per shard.  Scenario objects ride to the
workers via pickling, so custom scenarios must be defined at module top
level (the registered ones are).  The fault universe
(:func:`~repro.sim.campaign.campaign_universe`) is derived once per
sweep.

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
    KEEP_UNDETECTED,
    SHARD_TRIALS,
    CampaignResult,
    campaign_universe,
    merge_shards,
    run_shards,
    shard_plan,
)
from repro.sim.kernel import BatchEvaluator


def _run_shards(
    kernel, vectors, universe, scenario, shards
) -> list[CampaignResult]:
    """Run ``shard_plan`` rows on one evaluator built on ``kernel``.

    The evaluator lives for this call only.  Sharing it across the rows
    is safe for bit-identity: each shard's result is a pure function of
    its row's seed, whatever scenarios the pool already holds.
    """
    evaluator = BatchEvaluator(kernel, vectors, universe)
    return run_shards(
        evaluator, scenario, [(k, size, seed) for k, _, size, seed in shards]
    )


def run_sweep(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    fault_counts: Sequence[int] = (1, 2, 3, 4, 5),
    trials: int = 200,
    seed: int = 0,
    workers: int = 1,
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
    across sweeps) ever touches the seed.  ``scenario`` names the fault
    workload (a :class:`~repro.engine.scenarios.FaultScenario`); ``None``
    is the paper's stuck-at/control-leak space.  ``context`` supplies the
    kernel; the result is independent of ``workers`` and of whether the
    context has a store.

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
    task = (kernel, vectors, campaign_universe(fpva, scenario), scenario)
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
        k: merge_shards(k, shards, KEEP_UNDETECTED)
        for k, shards in by_k.items()
    }
