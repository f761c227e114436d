"""Resumable campaign fabric: durable, distributed fault-injection sweeps.

The section-IV experiments are million-trial sweeps; run through a plain
process pool they die with the process.  The fabric makes every
``(layout, suite, scenario, k, shard)`` task a content-addressed
descriptor (:mod:`repro.fabric.descriptors`), publishes completed shards
atomically into a :class:`ShardStore` (:mod:`repro.fabric.shards`, the
store subsystem's ``meta.json`` completeness-marker pattern), and tracks
pending/leased/done in a :class:`CampaignJournal`
(:mod:`repro.fabric.journal`) that any number of independent processes
can drain concurrently.  A killed run resumes from the last published
shard; re-running a finished campaign is a pure cache hit; and the merge
(:func:`repro.sim.campaign.merge_shards`) reads shards in canonical
order, so the aggregate is bit-identical to the uninterrupted
``workers=1`` run whatever happened along the way.

A campaign's shards are :func:`repro.sim.campaign.shard_plan`, the same
plan the in-memory pool runs, and every worker runs each shard through
:func:`repro.sim.campaign.run_shards`, as the pool does.  A multi-process
drain starts no more processes than there are unfinished shards, hands
worker ``i`` the round-robin slice ``remaining[i::n]`` of them and lets
it steal the rest; the lease protocol owns correctness.

Supervision (:mod:`repro.fabric.supervision`, :mod:`repro.fabric.retry`)
bounds what crashes *cost*: durable per-shard attempt counts (burned at
claim time, so SIGKILLed attempts count), bounded retries with
deterministic-jitter exponential backoff, heartbeat beacons that
distinguish hung workers from slow ones, and poison quarantine with a
diagnostic record once a shard's budget is gone.  Published artifacts
carry content checksums; one that fails verification at merge time is
quarantined out of the store and healed by re-simulation
(:meth:`CampaignJournal.heal_artifact`), so corrupt bytes never reach a
merged result.

Entry points: :func:`run_journaled_sweep` here, or ``journal_dir=`` on
:func:`repro.engine.run_sweep` and ``--journal-dir/--resume`` on the CLI
``campaign`` command.
"""

from repro.fabric.descriptors import CampaignSpec, ShardDescriptor
from repro.fabric.journal import (
    DEFAULT_LEASE_TIMEOUT,
    DONE,
    LEASED,
    PENDING,
    QUARANTINED,
    CampaignJournal,
    JournalMismatch,
)
from repro.fabric.retry import DEFAULT_MAX_ATTEMPTS, RetryPolicy
from repro.fabric.runner import (
    DrainStats,
    ShardWorker,
    load_sweep,
    run_journaled_sweep,
)
from repro.fabric.shards import ShardStore
from repro.fabric.supervision import SupervisionLedger

__all__ = [
    "CampaignJournal",
    "CampaignSpec",
    "DEFAULT_LEASE_TIMEOUT",
    "DEFAULT_MAX_ATTEMPTS",
    "DONE",
    "DrainStats",
    "JournalMismatch",
    "LEASED",
    "PENDING",
    "QUARANTINED",
    "RetryPolicy",
    "ShardDescriptor",
    "ShardStore",
    "ShardWorker",
    "SupervisionLedger",
    "load_sweep",
    "run_journaled_sweep",
]
