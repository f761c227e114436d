"""Vector application and fault detection.

The tester applies a suite of vectors to a (possibly faulty) chip, compares
the meter readings against the fault-free expectations stored in each
vector, and reports the *syndrome* — which vectors failed and what the
meters actually showed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.core.vectors import TestVector
from repro.fpva.array import FPVA
from repro.sim.chip import ChipUnderTest
from repro.sim.faults import Fault
from repro.sim.pressure import PressureSimulator


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

    def __init__(
        self,
        fpva: FPVA | None = None,
        kernel=None,
        *,
        simulator: PressureSimulator | None = None,
    ):
        if simulator is not None:
            # Shared-session construction (ExecutionContext.tester): adopt
            # the session's simulator instead of building a private one.
            if fpva is not None and simulator.fpva is not fpva:
                raise ValueError("simulator was built for a different array")
            self.fpva = simulator.fpva
            self.simulator = simulator
            return
        if fpva is None:
            raise TypeError("Tester requires an array (or a simulator=)")
        self.fpva = fpva
        self.simulator = PressureSimulator(fpva, kernel=kernel)

    def expected_readings(self, open_valves: Iterable) -> dict[str, bool]:
        """Fault-free meter readings for a commanded open set."""
        return self.simulator.meter_readings(frozenset(open_valves))

    def apply(self, chip: ChipUnderTest, vector: TestVector) -> VectorOutcome:
        """Apply one vector and read the meters."""
        effective, blocked = chip.effective_state(vector)
        observed = self.simulator.meter_readings(effective, blocked=blocked)
        return VectorOutcome(vector=vector, observed=observed)

    def run(
        self,
        chip: ChipUnderTest,
        vectors: Sequence[TestVector],
        stop_at_first_fail: bool = False,
    ) -> TestRunResult:
        """Apply a suite; optionally stop at the first failing vector."""
        result = TestRunResult()
        for vector in vectors:
            outcome = self.apply(chip, vector)
            result.outcomes.append(outcome)
            if stop_at_first_fail and not outcome.passed:
                result.stopped_early = True
                break
        return result

    def detects(self, faults: Sequence[Fault], vectors: Sequence[TestVector]) -> bool:
        """True if the suite flags a chip carrying exactly these faults."""
        chip = ChipUnderTest(self.fpva, faults)
        return self.run(chip, vectors, stop_at_first_fail=True).fault_detected
