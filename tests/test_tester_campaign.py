"""Tester, campaign and diagnosis on small arrays."""

import pytest

from repro.core import generate_suite
from repro.sim import (
    ChipUnderTest,
    FaultDictionary,
    StuckAt0,
    StuckAt1,
    Tester,
    mix_seed,
    sample_fault_set,
    fault_universe,
)
from repro.sim.campaign import run_trials


@pytest.fixture(scope="module")
def tiny_suite(request):
    from repro.fpva import full_layout

    fpva = full_layout(3, 3, name="tiny-suite")
    return fpva, generate_suite(fpva)


class TestTester:
    def test_fault_free_chip_passes(self, tiny_suite):
        fpva, suite = tiny_suite
        tester = Tester(fpva)
        result = tester.run(ChipUnderTest(fpva), suite.all_vectors())
        assert not result.fault_detected
        assert not result.failing

    def test_single_sa0_detected(self, tiny_suite):
        fpva, suite = tiny_suite
        tester = Tester(fpva)
        for valve in fpva.valves:
            assert tester.detects([StuckAt0(valve)], suite.all_vectors())

    def test_single_sa1_detected(self, tiny_suite):
        fpva, suite = tiny_suite
        tester = Tester(fpva)
        for valve in fpva.valves:
            assert tester.detects([StuckAt1(valve)], suite.all_vectors())

    def test_stop_at_first_fail(self, tiny_suite):
        fpva, suite = tiny_suite
        tester = Tester(fpva)
        chip = ChipUnderTest(fpva, [StuckAt0(fpva.valves[0])])
        result = tester.run(chip, suite.all_vectors(), stop_at_first_fail=True)
        assert result.fault_detected
        assert len(result.outcomes) <= suite.total

    def test_syndrome_hashable_and_stable(self, tiny_suite):
        fpva, suite = tiny_suite
        tester = Tester(fpva)
        chip = ChipUnderTest(fpva, [StuckAt0(fpva.valves[3])])
        s1 = tester.run(chip, suite.all_vectors()).syndrome()
        s2 = tester.run(chip, suite.all_vectors()).syndrome()
        assert s1 == s2
        hash(s1)


class TestCampaign:
    def test_sampler_rejects_incompatible(self, tiny_suite):
        import random

        fpva, _ = tiny_suite
        universe = fault_universe(fpva)
        rng = random.Random(1)
        for _ in range(50):
            faults = sample_fault_set(universe, 3, rng)
            assert len(faults) == 3

    def test_small_campaign_all_detected(self, tiny_suite):
        fpva, suite = tiny_suite
        result = run_trials(fpva, suite.all_vectors(), num_faults=2, trials=50)
        assert result.trials == 50
        assert result.all_detected, result.undetected_examples

    def test_sweep_shape(self, tiny_suite):
        fpva, suite = tiny_suite
        sweep = {
            k: run_trials(
                fpva, suite.all_vectors(), num_faults=k, trials=20,
                seed=mix_seed(0, k),
            )
            for k in (1, 2, 3)
        }
        assert set(sweep) == {1, 2, 3}
        for k, result in sweep.items():
            assert result.num_faults == k
            assert result.detection_rate >= 0.99  # paper: all detected


class TestDiagnosis:
    def test_single_fault_localization(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), include_control_leaks=False
        )
        target = StuckAt0(fpva.valves[4])
        report = dictionary.diagnose_chip(ChipUnderTest(fpva, [target]))
        assert report.localized
        assert (target,) in report.candidates

    def test_fault_free_syndrome_empty(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), include_control_leaks=False
        )
        report = dictionary.diagnose_chip(ChipUnderTest(fpva))
        # An empty syndrome is not in the dictionary (only faulty entries).
        assert report.syndrome == ()

    def test_resolution_reasonable(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), include_control_leaks=False
        )
        assert dictionary.distinct_syndromes > fpva.valve_count / 2
        assert dictionary.resolution() < 4.0
