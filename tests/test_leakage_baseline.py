"""Control-leakage vectors and the naive per-valve baseline."""

import pytest

from repro.core import generate_suite
from repro.core.baseline import BaselineGenerator
from repro.core.coverage import measure_coverage
from repro.core.leakage import LeakageGenerator
from repro.core.paths import FlowPathGenerator
from repro.fpva import full_layout
from repro.ilp import SolveOptions
from repro.sim import (
    ChipUnderTest,
    ControlLeak,
    ReachabilityKernel,
    StuckAt0,
    StuckAt1,
    Tester,
    control_leak_faults,
    untestable_leak_pairs,
)


@pytest.fixture(scope="module")
def tiny4():
    return full_layout(4, 4, name="leak-4x4")


@pytest.fixture(scope="module")
def leak_result(tiny4):
    paths = FlowPathGenerator(tiny4, SolveOptions(time_limit=90)).generate()
    gen = LeakageGenerator(tiny4)
    return gen.generate(template_vectors=paths.vectors)


class TestLeakage:
    def test_all_testable_pairs_covered(self, tiny4, leak_result):
        report_pairs = {
            frozenset(p) for p in leak_result.untestable_pairs
        }
        assert report_pairs <= set(untestable_leak_pairs(tiny4))

    def test_every_testable_leak_detected(self, tiny4, leak_result):
        tester = Tester(tiny4)
        for fault in control_leak_faults(tiny4):
            chip = ChipUnderTest(tiny4, [fault])
            assert tester.run(chip, leak_result.vectors).fault_detected, fault

    def test_standalone_section_self_contained(self, tiny4, leak_result):
        # The LEAKAGE vectors alone must cover all testable pairs.
        from repro.core.coverage import leak_covered_unordered
        from repro.fpva.control import control_adjacent_pairs

        kernel = ReachabilityKernel(tiny4)
        remaining = set(control_adjacent_pairs(tiny4)) - set(
            untestable_leak_pairs(tiny4)
        )
        for vec in leak_result.vectors:
            remaining -= leak_covered_unordered(
                kernel, vec, candidate_pairs=remaining
            )
        assert not remaining

    def test_incremental_mode_smaller(self, tiny4):
        paths = FlowPathGenerator(tiny4, SolveOptions(time_limit=90)).generate()
        gen = LeakageGenerator(tiny4)
        standalone = gen.generate(template_vectors=paths.vectors, standalone=True)
        incremental = gen.generate(template_vectors=paths.vectors, standalone=False)
        assert incremental.nl_leak <= standalone.nl_leak


class TestBaseline:
    @pytest.fixture(scope="class")
    def baseline(self, tiny4):
        return tiny4, BaselineGenerator(tiny4).generate()

    def test_vector_count_near_2nv(self, baseline):
        fpva, result = baseline
        assert result.total + 2 * len(result.skipped) == 2 * fpva.valve_count

    def test_no_valves_skipped_on_full_array(self, baseline):
        fpva, result = baseline
        assert not result.skipped

    def test_baseline_detects_stuck_at(self, baseline):
        fpva, result = baseline
        tester = Tester(fpva)
        for valve in fpva.valves:
            assert tester.detects([StuckAt0(valve)], result.vectors)
            assert tester.detects([StuckAt1(valve)], result.vectors)

    def test_vector_count_quadratic_vs_proposed(self, baseline):
        fpva, result = baseline
        suite = generate_suite(fpva, include_leakage=False)
        assert result.total > 3 * suite.total  # 2 n_v >> ~2 sqrt(n_v)

    def test_count_without_generation(self, tiny4):
        assert BaselineGenerator(tiny4).vector_count() == 2 * tiny4.valve_count
