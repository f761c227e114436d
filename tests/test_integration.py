"""End-to-end: generate → apply → detect → diagnose, plus property tests
over randomized layouts."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import TestGenerator, generate_suite, measure_coverage, validate_suite
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell
from repro.ilp import SolveOptions
from repro.sim import (
    ChipUnderTest,
    StuckAt0,
    StuckAt1,
    Tester,
)
from repro.engine import run_sweep


class TestEndToEnd:
    @pytest.fixture(scope="class")
    def bundle(self):
        fpva = full_layout(4, 4, name="e2e")
        suite = generate_suite(fpva)
        return fpva, suite, Tester(fpva)

    def test_clean_chip_passes(self, bundle):
        fpva, suite, tester = bundle
        assert not tester.run(ChipUnderTest(fpva), suite.all_vectors()).fault_detected

    def test_sweep_campaign_mirrors_paper(self, bundle):
        """Section IV: 1..5 random faults, all detected."""
        fpva, suite, tester = bundle
        sweep = run_sweep(
            fpva, suite.all_vectors(), fault_counts=(1, 2, 3, 4, 5), trials=60,
            seed=42,
        )
        for k, result in sweep.items():
            assert result.all_detected, (k, result.undetected_examples)

    def test_mixed_fault_types(self, bundle):
        fpva, suite, tester = bundle
        chip = ChipUnderTest(
            fpva,
            [StuckAt0(fpva.valves[0]), StuckAt1(fpva.valves[-1])],
        )
        assert tester.run(chip, suite.all_vectors()).fault_detected

    def test_suite_coverage_complete(self, bundle):
        fpva, suite, _ = bundle
        report = measure_coverage(fpva, suite.all_vectors())
        assert report.complete, report.summary()


def _random_layout(draw_obstacle_r, draw_obstacle_c, nr, nc, with_channel):
    builder = FPVABuilder(nr, nc, name="hypo")
    if draw_obstacle_r is not None:
        builder.obstacle(draw_obstacle_r, draw_obstacle_c)
    if with_channel:
        builder.channel(Cell(nr, 1), "east", 1)
    builder.source(Side.WEST, 1).sink(Side.EAST, nr)
    return builder.build()


@st.composite
def small_layouts(draw):
    nr = draw(st.integers(3, 5))
    nc = draw(st.integers(3, 5))
    with_obstacle = draw(st.booleans())
    obstacle = None
    if with_obstacle:
        # Keep it interior-ish and away from the corner ports.
        r = draw(st.integers(2, nr - 1))
        c = draw(st.integers(2, nc - 1))
        obstacle = (r, c)
    with_channel = draw(st.booleans())
    builder = FPVABuilder(nr, nc, name=f"hypo-{nr}x{nc}")
    if obstacle:
        builder.obstacle(*obstacle)
    if with_channel and obstacle not in ((nr - 1, 1), (nr - 1, 2)):
        builder.channel(Cell(nr - 1, 1), "east", 1)
    builder.source(Side.WEST, 1).sink(Side.EAST, nr)
    return builder.build()


@pytest.mark.slow
class TestGenerationProperties:
    """Invariants over randomized small layouts (hypothesis)."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(small_layouts())
    def test_generated_suite_always_valid(self, fpva):
        suite = generate_suite(
            fpva,
            include_leakage=False,
            solve_options=SolveOptions(time_limit=60),
        )
        report = validate_suite(fpva, suite.all_vectors())
        assert report.ok, report.issues[:3]

    @settings(
        max_examples=6,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(small_layouts(), st.randoms(use_true_random=False))
    def test_random_double_faults_detected(self, fpva, rng):
        # Minimal path/cut generation alone can miss mutually-masking
        # SA0+SA1 pairs (hypothesis found one on a 5x4 obstacle layout,
        # pinned in tests/test_repair.py); double-fault hardening audits
        # for those pairs and synthesizes breaker vectors.
        suite = generate_suite(
            fpva,
            include_leakage=False,
            solve_options=SolveOptions(time_limit=60),
            harden_double_faults=True,
        )
        tester = Tester(fpva)
        valves = list(fpva.valves)
        for _ in range(10):
            v1, v2 = rng.sample(valves, 2)
            faults = [
                StuckAt0(v1) if rng.random() < 0.5 else StuckAt1(v1),
                StuckAt0(v2) if rng.random() < 0.5 else StuckAt1(v2),
            ]
            assert tester.detects(faults, suite.all_vectors()), faults
