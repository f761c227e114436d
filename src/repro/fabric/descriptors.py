"""Content-addressed shard descriptors: the fabric's unit of work.

A campaign's shard space is a pure function of its parameters — never of
worker count, execution order, or wall clock.  :class:`CampaignSpec`
captures those parameters once; :meth:`CampaignSpec.shards` addresses the
``(k, shard, trials, seed)`` coordinates of
:func:`repro.sim.campaign.shard_plan`, the same plan the in-memory pool
(:mod:`repro.engine.parallel`) runs, so a journaled run and a pool run
simulate literally the same shards.

Each :class:`ShardDescriptor` carries its BLAKE2b content digest
(:func:`repro.store.digest.shard_digests`): the digest covers the layout,
the vector suite, the scenario workload, the base seed and the shard's
``(k, index, size)`` coordinates — **not** the sweep's fault-count list or
total trial count — so a single-``k`` campaign and a sweep containing that
``k`` address the same shard artifacts, and extending ``trials`` reuses
every full shard already published.  A spec addresses its whole grid in
one pass (the suite is encoded once, not once per shard) and memoizes it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.campaign import SHARD_TRIALS, shard_plan
from repro.store.digest import campaign_digest, campaign_key, shard_digests


@dataclass(frozen=True)
class ShardDescriptor:
    """One content-addressed unit of campaign work."""

    digest: str
    num_faults: int
    shard: int
    trials: int
    seed: int

    @property
    def label(self) -> str:
        """Human-readable coordinates for diagnostics and quarantine
        records (the digest alone tells an operator nothing)."""
        return f"k={self.num_faults}/shard={self.shard}"


@dataclass(frozen=True)
class CampaignSpec:
    """Everything that determines a campaign's shard space and results.

    Picklable (the multi-process drain ships one to each worker): the
    scenario must live at module top level, exactly as the in-memory pool
    already requires.  Construction plans the shards, so an invalid sweep
    raises :class:`ValueError` here, as :func:`shard_plan` does.
    """

    fpva: FPVA
    vectors: tuple[TestVector, ...]
    fault_counts: tuple[int, ...]
    trials: int
    seed: int = 0
    include_control_leaks: bool = True
    keep_undetected: int = 10
    scenario: object = None
    shard_trials: int = SHARD_TRIALS
    _plan: tuple[tuple[int, int, int, int], ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _key: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _shards: tuple[ShardDescriptor, ...] | None = field(
        init=False, repr=False, compare=False, default=None
    )

    def __post_init__(self) -> None:
        object.__setattr__(self, "vectors", tuple(self.vectors))
        object.__setattr__(
            self, "fault_counts", tuple(int(k) for k in self.fault_counts)
        )
        object.__setattr__(
            self,
            "_plan",
            shard_plan(self.fault_counts, self.trials, self.shard_trials, self.seed),
        )

    @property
    def key(self) -> tuple:
        """The campaign-level digest prefix (memoized; hashing the vector
        suite is the expensive part)."""
        if self._key is None:
            object.__setattr__(
                self,
                "_key",
                campaign_key(
                    self.fpva,
                    self.vectors,
                    self.scenario,
                    self.include_control_leaks,
                    self.seed,
                    self.shard_trials,
                    self.keep_undetected,
                ),
            )
        return self._key

    @property
    def digest(self) -> str:
        """Manifest identity of this concrete invocation."""
        return campaign_digest(self.key, self.fault_counts, self.trials)

    def shards(self) -> list[ShardDescriptor]:
        """Every shard of the sweep, in canonical ``(k, shard)`` order: the
        plan, addressed in one pass and memoized (like :attr:`key`)."""
        shards = self._shards
        if shards is None:
            coords = [(k, shard, size) for k, shard, size, _ in self._plan]
            shards = tuple(
                ShardDescriptor(
                    digest=digest, num_faults=k, shard=shard, trials=size,
                    seed=seed,
                )
                for (k, shard, size, seed), digest in zip(
                    self._plan, shard_digests(self.key, coords), strict=True
                )
            )
            object.__setattr__(self, "_shards", shards)
        return list(shards)

    def shards_for(self, num_faults: int) -> list[ShardDescriptor]:
        """The shard split for one of the spec's fault counts, in shard order."""
        return [d for d in self.shards() if d.num_faults == num_faults]

    def manifest(self) -> dict:
        """The human-inspectable journal manifest payload."""
        scenario = self.scenario
        return {
            "digest": self.digest,
            "layout": self.fpva.name,
            "vectors": len(self.vectors),
            "fault_counts": list(self.fault_counts),
            "trials": self.trials,
            "seed": self.seed,
            "include_control_leaks": self.include_control_leaks,
            "keep_undetected": self.keep_undetected,
            "scenario": getattr(scenario, "name", None),
            "shard_trials": self.shard_trials,
            "shards": len(self.shards()),
        }
