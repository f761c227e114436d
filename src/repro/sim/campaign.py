"""Randomized multi-fault injection campaigns (the section IV experiment).

The paper's evaluation randomly introduces one to five faults per chip,
10 000 times per array, and applies the generated test set; every injected
fault combination was detected.  This module reproduces that experiment
with a configurable trial count.

A sweep runs as independent shards.  :func:`shard_plan` is the one
definition of that split and of each shard's RNG stream, and
:func:`merge_shards` the one way shard results combine; the in-memory
pool (:mod:`repro.engine.parallel`) and the journaled fabric
(:mod:`repro.fabric`) both run the plan, so they simulate the same chips.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.fpva.array import FPVA
from repro.sim.faults import Fault, compatibility_key, fault_universe
from repro.sim.kernel import BatchEvaluator
from repro.sim.seeding import mix_seed

#: Trials per logical shard.  Small enough that modest campaigns still fan
#: out, large enough that per-task pickling stays negligible.
SHARD_TRIALS = 50

#: Undetected chips kept as examples, by each shard and by each merged
#: fault count: the earliest ones by trial index.
KEEP_UNDETECTED = 10

#: Incompatible draws :func:`sample_fault_set` rejects before it draws
#: exactly instead.
MAX_ATTEMPTS = 1000

#: Chips of whole shards :func:`run_shards` simulates per call: a few MB
#: of scenario rows, which per-call overhead barely shows in.
BATCH_CHIPS = 1024


@dataclass
class CampaignResult:
    """Detection statistics for one (array, fault-count) configuration."""

    num_faults: int
    trials: int
    detected: int
    undetected_examples: list[tuple[Fault, ...]] = field(default_factory=list)
    #: Trial index (within this result's own trial stream) of each kept
    #: undetected example, parallel to :attr:`undetected_examples`.  Merged
    #: results carry campaign-global indices, which is what lets the merge
    #: select examples deterministically whatever order shards arrive in.
    undetected_trials: list[int] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        return self.detected / self.trials if self.trials else 1.0

    @property
    def all_detected(self) -> bool:
        return self.detected == self.trials

    def as_dict(self) -> dict:
        """A JSON-serializable view (faults rendered via ``repr``)."""
        return {
            "num_faults": self.num_faults,
            "trials": self.trials,
            "detected": self.detected,
            "detection_rate": self.detection_rate,
            "undetected_trials": list(self.undetected_trials),
            "undetected_examples": [
                [repr(fault) for fault in example]
                for example in self.undetected_examples
            ],
        }

    def __repr__(self):
        return (
            f"CampaignResult(k={self.num_faults}, {self.detected}/{self.trials} "
            f"detected = {self.detection_rate:.4%})"
        )


def shard_plan(
    fault_counts: Sequence[int],
    trials: int,
    shard_trials: int = SHARD_TRIALS,
    seed: int = 0,
) -> tuple[tuple[int, int, int, int], ...]:
    """A sweep's shards as ``(k, shard, trials, seed)``, in ``(k, shard)`` order.

    Every fault count splits ``trials`` into ``shard_trials``-sized shards
    plus one shorter tail shard, and each shard draws from its own stream
    ``mix_seed(seed, k, shard)`` — a function of the coordinates alone,
    never of worker count, so every runner of the plan merges to one
    result.  A repeated fault count, ``shard_trials < 1`` or
    ``trials < 0`` raises :class:`ValueError`.
    """
    fault_counts = tuple(fault_counts)
    if len(set(fault_counts)) != len(fault_counts):
        raise ValueError(f"duplicate fault counts: {fault_counts}")
    if shard_trials < 1:
        raise ValueError(f"shard_trials must be at least 1, not {shard_trials}")
    if trials < 0:
        raise ValueError(f"trials must be non-negative, not {trials}")
    sizes = [
        min(shard_trials, trials - start)
        for start in range(0, trials, shard_trials)
    ]
    return tuple(
        (k, shard, size, mix_seed(seed, k, shard))
        for k in fault_counts
        for shard, size in enumerate(sizes)
    )


def merge_shards(
    num_faults: int,
    shards: Sequence[tuple[int, "CampaignResult"]],
    keep_undetected: int,
) -> "CampaignResult":
    """Merge ``(shard index, result)`` pairs into one :class:`CampaignResult`.

    The aggregate is a pure function of the shard *contents*: counts are
    commutative sums, and undetected examples are re-indexed to
    campaign-global trial numbers (``shard offset + local trial``), sorted
    by that global index, then truncated to ``keep_undetected`` — so the
    merge is bit-identical whether shards arrive in shard order (the
    in-memory pool), completion order, or any resume order (the fabric).
    """
    ordered = sorted(shards, key=lambda pair: pair[0])
    indices = [index for index, _ in ordered]
    if len(set(indices)) != len(indices):
        raise ValueError(f"duplicate shard indices in merge: {indices}")
    merged = CampaignResult(num_faults=num_faults, trials=0, detected=0)
    entries: list[tuple[int, tuple]] = []
    offset = 0
    for _, shard in ordered:
        merged.trials += shard.trials
        merged.detected += shard.detected
        for local, example in zip(
            shard.undetected_trials, shard.undetected_examples, strict=True
        ):
            entries.append((offset + local, example))
        offset += shard.trials
    entries.sort(key=lambda entry: entry[0])
    for global_trial, example in entries[:keep_undetected]:
        merged.undetected_examples.append(example)
        merged.undetected_trials.append(global_trial)
    return merged


def sample_fault_set(
    universe: Sequence[Fault], k: int, rng: random.Random
) -> tuple[Fault, ...]:
    """Draw ``k`` distinct, physically compatible faults, uniformly:
    :func:`_sample_indices` over the universe's positions.  A ``k``
    above :func:`~repro.sim.faults.max_compatible_faults` raises
    :class:`RuntimeError`."""
    key = lambda i: compatibility_key(universe[i])  # noqa: E731
    return tuple(universe[i] for i in _sample_indices(len(universe), key, k, rng))


def _sample_indices(
    n: int, key: Callable[[int], object], k: int, rng: random.Random
) -> list[int]:
    """``k`` positions of ``range(n)`` with distinct ``key`` values,
    drawn uniformly.

    Rejection first: ``rng.sample(range(n), k)``, which takes the random
    numbers ``rng.sample`` takes over any length-``n`` sequence, until a
    draw is compatible.  After :data:`MAX_ATTEMPTS` rejected draws the
    set is drawn exactly from the same distribution (:func:`_sample_by_key`).
    """
    for _ in range(MAX_ATTEMPTS):
        picked = rng.sample(range(n), k)
        if len(set(map(key, picked))) == k:
            return picked
    return _sample_by_key(n, key, k, rng)


def _sample_by_key(
    n: int, key: Callable[[int], object], k: int, rng: random.Random
) -> list[int]:
    """A uniform compatible ``k``-set of positions, drawn one key group
    at a time.

    A set is compatible exactly when no two of its positions share a
    ``key``, so it is ``k`` key groups and one position from each.
    ``ways[i][j]``, the elementary symmetric polynomial of degree ``j``
    over the sizes of groups ``i`` onward, counts the sets that take
    ``j`` positions from those groups; taking group ``i`` with
    probability ``size_i * ways[i + 1][j - 1] / ways[i][j]`` makes every
    compatible set equally likely.
    """
    by_key: dict[object, list[int]] = {}
    for i in range(n):
        by_key.setdefault(key(i), []).append(i)
    groups = list(by_key.values())
    ways = [[1] + [0] * k]  # no group left: only the empty set
    for group in reversed(groups):
        after = ways[-1]
        ways.append(
            [1] + [after[j] + len(group) * after[j - 1] for j in range(1, k + 1)]
        )
    ways.reverse()
    if not ways[0][k]:
        raise RuntimeError(f"could not sample {k} compatible faults")
    picked: list[int] = []
    for i, group in enumerate(groups):
        j = k - len(picked)
        if not j:
            break
        if rng.randrange(ways[i][j]) < len(group) * ways[i + 1][j - 1]:
            picked.append(rng.choice(group))
    rng.shuffle(picked)
    return picked


def campaign_universe(fpva: FPVA, scenario=None) -> tuple[Fault, ...]:
    """The faults a campaign draws its chips from.

    ``scenario.universe(fpva)`` when a scenario is given, else the
    paper's stuck-at/control-leak space (the ``stuck-at`` scenario's
    universe).  A sweep derives it once and hands it to every shard, so
    it is a tuple: no shard can change what the next one draws from.
    """
    if scenario is None:
        return tuple(fault_universe(fpva))
    return tuple(scenario.universe(fpva))


def run_shards(
    evaluator: BatchEvaluator,
    scenario,
    shards: Sequence[tuple[int, int, int]],
) -> list[CampaignResult]:
    """The :class:`CampaignResult` of each :func:`shard_plan` row given
    as ``(k, trials, seed)``: ``trials`` chips of ``k`` faults.

    ``evaluator`` is a :class:`~repro.sim.kernel.BatchEvaluator` on the
    suite and the sweep's universe (:func:`campaign_universe`).  Whole
    shards' chips (:func:`_draw`) go to it :data:`BATCH_CHIPS` or more at
    a time, one ``slot_rows`` call and one flush each.  A chip is
    detected iff *any* vector reads off-expectation, so every result is
    bit-identical to applying the suite chip by chip (the reference loop
    in ``tests/oracle.py``, which draws in the same RNG order), however
    the shards are batched; the first :data:`KEEP_UNDETECTED` undetected
    chips of a shard are kept as examples.  The in-memory pool
    (:func:`repro.engine.run_sweep`) passes its slice of the plan, the
    fabric's :class:`~repro.fabric.ShardWorker` one shard at a time.
    """
    results: list[CampaignResult] = []
    batch: list[tuple[int, list[list[int]]]] = []
    for k, trials, seed in shards:
        batch.append((k, _draw(evaluator, scenario, k, trials, seed)))
        if sum(len(drawn) for _, drawn in batch) >= BATCH_CHIPS:
            results += _judge(evaluator, batch)
            batch = []
    return results + _judge(evaluator, batch)


def _draw(
    evaluator: BatchEvaluator, scenario, k: int, trials: int, seed: int
) -> list[list[int]]:
    """One shard's chips as universe-index rows, from the stream ``seed``,
    as :func:`sample_fault_set` or ``scenario.sample`` draws them."""
    rng = random.Random(seed)
    universe, keys = evaluator.universe, evaluator.key_ids
    if scenario is None:
        key = keys.__getitem__
        return [_sample_indices(len(universe), key, k, rng) for _ in range(trials)]
    drawn = []
    for _ in range(trials):
        faults = scenario.sample(universe, rng, k)
        row = [evaluator.positions.get(fault, -1) for fault in faults]
        # The gates ChipUnderTest applies (scenarios are expected to draw
        # compatible sets from their universe).
        if -1 in row or len({keys[i] for i in row}) != len(row):
            raise ValueError(f"scenario drew an incompatible or foreign set: {faults}")
        drawn.append(row)
    return drawn


def _judge(
    evaluator: BatchEvaluator, batch: list[tuple[int, list[list[int]]]]
) -> list[CampaignResult]:
    """Drawn shards' results, from one ``slot_rows`` call and one flush."""
    slots = evaluator.slot_rows([row for _, drawn in batch for row in drawn])
    evaluator.flush()
    hits = iter(evaluator.detects(slots).tolist())
    results = []
    for k, drawn in batch:
        result = CampaignResult(num_faults=k, trials=len(drawn), detected=0)
        for trial, (row, hit) in enumerate(zip(drawn, hits)):
            if hit:
                result.detected += 1
            elif len(result.undetected_examples) < KEEP_UNDETECTED:
                faults = tuple(evaluator.universe[i] for i in row)
                result.undetected_examples.append(faults)
                result.undetected_trials.append(trial)
        results.append(result)
    return results
