"""Fault localization: from a failing test run to the defect's location.

A failing chip is not always waste — an FPVA with a localized defect can
still run applications mapped around the bad region.  This example builds a
syndrome dictionary from the generated suite and localizes randomly
injected faults.

    python examples/fault_diagnosis.py
"""

import random

from repro import (
    ChipUnderTest,
    ExecutionContext,
    FaultDictionary,
    TestGenerator,
    full_layout,
)
from repro.sim import fault_universe, sample_fault_set


def main() -> None:
    fpva = full_layout(5, 5, name="diagnosable")
    ctx = ExecutionContext(fpva)  # one compiled kernel for suite + dictionary
    suite = TestGenerator(fpva, context=ctx).generate().testset
    print(f"{fpva.describe()}")
    print(f"suite: {suite.summary()}")

    # Precompute the syndrome dictionary for all single faults.
    dictionary = FaultDictionary(
        fpva,
        suite.all_vectors(),
        max_cardinality=1,
        context=ctx,
    )
    print(
        f"dictionary: {dictionary.distinct_syndromes} distinct syndromes, "
        f"avg candidates per syndrome = {dictionary.resolution():.2f}\n"
    )

    rng = random.Random(7)
    universe = fault_universe(fpva)
    hits = unique = 0
    for trial in range(10):
        (fault,) = sample_fault_set(universe, 1, rng)
        chip = ChipUnderTest(fpva, [fault])
        report = dictionary.diagnose_chip(chip)
        located = any(fault in cand for cand in report.candidates)
        hits += located
        unique += report.is_unique
        label = "UNIQUE" if report.is_unique else f"{len(report.candidates)} candidates"
        print(f"  trial {trial}: injected {fault} -> "
              f"{'located' if located else 'MISSED'} ({label})")

    print(f"\nlocalized {hits}/10 injected faults "
          f"({unique} with a unique syndrome)")


if __name__ == "__main__":
    main()
