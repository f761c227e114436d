"""Double-fault hardening (core/repair.py).

Pins a counterexample the generated suite misses: on a 5x3 layout with
an obstacle at (4,2), the minimal path/cut suite misses the
mutually-masking pair SA0(Edge[2,1|3,1]) + SA1(Edge[3,1|3,2]) — the
stuck-open valve re-routes pressure around the broken one, and the
broken one severs the leak route that would expose the stuck-open one.
Hypothesis first found such a pair on a 5x4 layout with an obstacle at
(3,2); the certified sweep walls now detect that one.
"""

import pytest

from repro.core import (
    TestGenerator,
    find_masked_stuck_pairs,
    generate_suite,
    validate_suite,
)
from repro.core.vectors import VectorKind
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell, Edge
from repro.ilp import SolveOptions
from repro.sim import StuckAt0, StuckAt1, Tester

MASKED_SA0 = Edge(Cell(2, 1), Cell(3, 1))
MASKED_SA1 = Edge(Cell(3, 1), Cell(3, 2))
MASKED_PAIR = [StuckAt0(MASKED_SA0), StuckAt1(MASKED_SA1)]

#: The first counterexample hypothesis found (5x4, obstacle at (3, 2)).
#: Its suite now detects the pair: the certified sweep walls cut it.
FIRST_PAIR = [
    StuckAt0(Edge(Cell(2, 2), Cell(2, 3))),
    StuckAt1(Edge(Cell(1, 2), Cell(2, 2))),
]


@pytest.fixture(scope="module")
def counterexample_layout():
    return (
        FPVABuilder(5, 3, name="masking-cex")
        .obstacle(4, 2)
        .source(Side.WEST, 1)
        .sink(Side.EAST, 5)
        .build()
    )


@pytest.fixture(scope="module")
def hardened(counterexample_layout):
    generated = TestGenerator(
        counterexample_layout,
        include_leakage=False,
        solve_options=SolveOptions(time_limit=60),
        harden_double_faults=True,
    ).generate()
    assert generated.report.hardening is not None
    return generated


@pytest.mark.slow
class TestCounterexample:
    def test_unhardened_suite_misses_the_pair(self, counterexample_layout):
        """The pinned gap: without hardening, the pair stays invisible."""
        fpva = counterexample_layout
        suite = generate_suite(
            fpva, include_leakage=False, solve_options=SolveOptions(time_limit=60)
        )
        assert not Tester(fpva).detects(MASKED_PAIR, suite.all_vectors())

    def test_unhardened_suite_detects_the_first_pair(self):
        fpva = (
            FPVABuilder(5, 4, name="masking-cex-first")
            .obstacle(3, 2)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 5)
            .build()
        )
        suite = generate_suite(
            fpva, include_leakage=False, solve_options=SolveOptions(time_limit=60)
        )
        assert Tester(fpva).detects(FIRST_PAIR, suite.all_vectors())

    def test_hardened_suite_detects_the_pair(self, counterexample_layout, hardened):
        report = hardened.report.hardening
        assert report.ok, report.pairs_unrepaired
        assert (MASKED_PAIR[0], MASKED_PAIR[1]) in report.pairs_missed
        tester = Tester(counterexample_layout)
        assert tester.detects(MASKED_PAIR, hardened.testset.all_vectors())

    def test_hardened_suite_audits_clean(self, counterexample_layout, hardened):
        _, missed = find_masked_stuck_pairs(
            counterexample_layout, hardened.testset.all_vectors()
        )
        assert missed == []

    def test_breaker_vectors_are_valid(self, counterexample_layout, hardened):
        """Synthesized vectors obey the same legality rules as generated
        ones (simple observable paths / genuine cuts, stored expectations
        match simulation)."""
        added = hardened.report.hardening.vectors_added
        assert added
        assert all(v.name.startswith("harden") for v in added)
        report = validate_suite(counterexample_layout, hardened.testset.all_vectors())
        assert report.ok, report.issues[:3]

    def test_hardened_counts_reflected_in_report(self, hardened):
        testset = hardened.testset
        assert hardened.report.np_paths == len(testset.flow_paths)
        assert hardened.report.nc_cuts == len(testset.cut_sets)
        kinds = {v.kind for v in hardened.report.hardening.vectors_added}
        assert kinds <= {VectorKind.FLOW_PATH, VectorKind.CUT_SET}


class TestHardeningGeneral:
    def test_clean_suite_needs_no_repair(self):
        """A full 4x4 array's suite already detects all mixed pairs."""
        fpva = full_layout(4, 4, name="harden-clean")
        generated = TestGenerator(fpva, harden_double_faults=True).generate()
        report = generated.report.hardening
        assert report.pairs_missed == []
        assert report.vectors_added == []
        assert report.pairs_audited == fpva.valve_count * (fpva.valve_count - 1)
