"""Randomized multi-fault injection campaigns (the section IV experiment).

The paper's evaluation randomly introduces one to five faults per chip,
10 000 times per array, and applies the generated test set; every injected
fault combination was detected.  This module reproduces that experiment
with a configurable trial count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.faults import Fault, fault_universe, faults_compatible
from repro.sim.kernel import CompiledFaultSet


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
    universe: Sequence[Fault], k: int, rng: random.Random, max_attempts: int = 1000
) -> tuple[Fault, ...]:
    """Draw ``k`` distinct, physically compatible faults."""
    for _ in range(max_attempts):
        picked = tuple(rng.sample(universe, k))
        if faults_compatible(picked):
            return picked
    raise RuntimeError(f"could not sample {k} compatible faults")


def campaign_universe(
    fpva: FPVA, scenario=None, include_control_leaks: bool = True
) -> tuple[Fault, ...]:
    """The faults a campaign draws its chips from.

    ``scenario.universe(fpva)`` when a scenario is given, else the
    paper's stuck-at/control-leak space.  A sweep derives it once and
    hands it to every shard, so it is a tuple: no shard can change what
    the next one draws from.
    """
    if scenario is None:
        return tuple(
            fault_universe(fpva, include_control_leaks=include_control_leaks)
        )
    return tuple(scenario.universe(fpva))


def run_trials(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    num_faults: int,
    trials: int,
    seed: int = 0,
    include_control_leaks: bool = True,
    keep_undetected: int = 10,
    scenario=None,
    context=None,
) -> CampaignResult:
    """Inject ``num_faults`` random faults ``trials`` times; count detections.

    One RNG stream seeded by ``seed`` draws every trial — this is the loop
    each shard of :func:`repro.engine.run_campaign` runs, which is the
    public, worker-count-invariant campaign entry point.

    ``scenario`` is any object implementing the
    :class:`repro.engine.scenarios.FaultScenario` protocol (``universe(fpva)``
    and ``sample(universe, rng, num_faults)``); when omitted the paper's
    stuck-at/control-leak fault space is sampled directly.

    ``context`` supplies the compiled-kernel session (kernel and
    batch-evaluation scenario pool).  Every trial chip is canonicalized
    to its per-vector effective-state masks, deduplicated, and the whole
    campaign is evaluated through the compiled bitmask kernel — 64
    scenarios per machine word.  A chip is detected iff *any* vector
    reads off-expectation, so the result is bit-identical to applying
    the suite chip by chip (the reference loop in ``tests/oracle.py``,
    which draws fault sets in the same RNG order).
    """
    return _run_trials(
        fpva, vectors, num_faults, trials, seed, keep_undetected, scenario,
        campaign_universe(fpva, scenario, include_control_leaks), context,
    )


def _run_trials(
    fpva: FPVA,
    vectors: Sequence[TestVector],
    num_faults: int,
    trials: int,
    seed: int,
    keep_undetected: int,
    scenario,
    universe: Sequence[Fault],
    context,
) -> CampaignResult:
    """:func:`run_trials` over an already-derived :func:`campaign_universe`
    (the shard path, which derives it once per sweep or worker)."""
    from repro.context import ExecutionContext  # late: context sits above sim

    context = ExecutionContext.resolve(context, fpva)
    rng = random.Random(seed)
    if scenario is None:
        draw = lambda: sample_fault_set(universe, num_faults, rng)  # noqa: E731
    else:
        draw = lambda: scenario.sample(universe, rng, num_faults)  # noqa: E731
    result = CampaignResult(num_faults=num_faults, trials=trials, detected=0)
    # Draw everything, simulate once.
    evaluator = context.evaluator(vectors)
    kernel = evaluator.kernel
    fires_cache: dict = {}
    drawn = [draw() for _ in range(trials)]
    rows = []
    for faults in drawn:
        # Same physical-consistency gate ChipUnderTest applies
        # (scenarios are expected to sample compatible sets).
        if not faults_compatible(faults):
            raise ValueError(f"incompatible fault set: {tuple(faults)}")
        rows.append(
            evaluator.slot_row(CompiledFaultSet(kernel, faults, fires_cache))
        )
    evaluator.flush()
    expected = evaluator.expected_rows
    observed = evaluator.observed_row
    for trial, (faults, row) in enumerate(zip(drawn, rows)):
        if any(observed(slot) != expected[vi] for vi, slot in enumerate(row)):
            result.detected += 1
        elif len(result.undetected_examples) < keep_undetected:
            result.undetected_examples.append(faults)
            result.undetected_trials.append(trial)
    return result
