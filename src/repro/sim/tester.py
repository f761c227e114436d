"""Vector application and fault detection.

The tester applies a suite of vectors to a (possibly faulty) chip, compares
the meter readings against the fault-free expectations stored in each
vector, and reports the *syndrome* — which vectors failed and what the
meters actually showed.  A chip is applied through its array's compiled
kernel: :meth:`Tester.mount` folds its faults over a suite in one call
(:class:`~repro.sim.kernel.FaultFold`, the one fault model), and each
vector read then costs one scalar reachability query.  Each tester
memoizes its vectors' commanded open masks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.fpva.geometry import Edge
from repro.sim.chip import ChipUnderTest
from repro.sim.faults import Fault
from repro.sim.kernel import FaultFold, ReachabilityKernel

#: FIFO bound on one tester's memo of commanded open masks (a suite has
#: tens to a few hundred vectors).
_OPEN_MASK_LIMIT = 4096


@dataclass(frozen=True)
class VectorOutcome:
    """Result of applying one vector to one chip."""

    vector: TestVector
    observed: dict[str, bool]

    @property
    def expected(self) -> dict[str, bool]:
        return dict(self.vector.expected)

    @property
    def passed(self) -> bool:
        return self.observed == self.vector.expected


@dataclass
class TestRunResult:
    """Outcome of a full suite application."""

    __test__ = False  # not a pytest test class despite the name

    outcomes: list[VectorOutcome] = field(default_factory=list)
    stopped_early: bool = False

    @property
    def failing(self) -> list[VectorOutcome]:
        return [o for o in self.outcomes if not o.passed]

    @property
    def fault_detected(self) -> bool:
        return bool(self.failing)

    def syndrome(self) -> tuple[tuple[str, tuple[tuple[str, bool], ...]], ...]:
        """A hashable per-failing-vector signature, for diagnosis lookup."""
        return tuple(
            (o.vector.name, tuple(sorted(o.observed.items())))
            for o in self.failing
        )


class Tester:
    """Applies vectors to chips under test."""

    __test__ = False  # not a pytest test class despite the name

    def __init__(self, fpva: FPVA, kernel: ReachabilityKernel | None = None):
        if kernel is not None and kernel.fpva is not fpva:
            raise ValueError("kernel was compiled for a different array")
        self.fpva = fpva
        self.kernel = kernel if kernel is not None else ReachabilityKernel(fpva)
        self._open_masks: dict[frozenset[Edge], int] = {}
        #: The mounted chip and its masks per (vector name, open valves).
        self._mounted: tuple[ChipUnderTest | None, dict] = (None, {})

    def apply(self, chip: ChipUnderTest, vector: TestVector) -> VectorOutcome:
        """Apply one vector and read the meters."""
        return next(self._outcomes(chip, (vector,)))

    def run(
        self,
        chip: ChipUnderTest,
        vectors: Sequence[TestVector],
        stop_at_first_fail: bool = False,
    ) -> TestRunResult:
        """Apply a suite; optionally stop at the first failing vector."""
        result = TestRunResult()
        for outcome in self._outcomes(chip, vectors):
            result.outcomes.append(outcome)
            if stop_at_first_fail and not outcome.passed:
                result.stopped_early = True
                break
        return result

    def detects(self, faults: Sequence[Fault], vectors: Sequence[TestVector]) -> bool:
        """True if the suite flags a chip carrying exactly these faults."""
        chip = ChipUnderTest(self.fpva, faults)
        return self.run(chip, vectors, stop_at_first_fail=True).fault_detected

    def mount(self, chip: ChipUnderTest, vectors: Sequence[TestVector]) -> None:
        """Fold ``chip``'s faults over ``vectors`` in one call and keep the
        masks, per vector name and open valves, until the next mount: an
        adaptive session mounts its chip with the whole suite, so each
        vector it applies is one scalar query."""
        known, commanded = self._open_masks, []
        for vector in vectors:
            mask = known.get(vector.open_valves)
            if mask is None:
                while len(known) >= _OPEN_MASK_LIMIT:
                    known.pop(next(iter(known)))
                mask = known[vector.open_valves] = self.kernel.valve_mask(
                    vector.open_valves
                )
            commanded.append(mask)
        names = [vector.name for vector in vectors]
        fold = FaultFold(self.kernel, chip.faults, names, commanded)
        keys = ((vector.name, vector.open_valves) for vector in vectors)
        self._mounted = (chip, dict(zip(keys, fold.masks(range(len(chip.faults))))))

    def _outcomes(
        self, chip: ChipUnderTest, vectors: Sequence[TestVector]
    ) -> Iterator[VectorOutcome]:
        """``chip`` under each of ``vectors``, mounted first unless the
        mounted chip holds them all; one scalar query per vector read."""
        keys = [(vector.name, vector.open_valves) for vector in vectors]
        mounted, masks = self._mounted
        if mounted is not chip or not all(map(masks.__contains__, keys)):
            self.mount(chip, vectors)
            masks = self._mounted[1]
        for vector, key in zip(vectors, keys):
            yield VectorOutcome(vector, self.kernel.readings(*masks[key]))
