"""Tester, campaign and diagnosis on small arrays."""

import importlib.util
import random
from collections import Counter
from pathlib import Path

import pytest

from repro.core import generate_suite
from repro.engine import get_scenario, run_sweep
from repro.sim import (
    ChipUnderTest,
    FaultDictionary,
    StuckAt0,
    StuckAt1,
    Tester,
    faults_compatible,
    sample_fault_set,
    fault_universe,
    stuck_at_faults,
)
from repro.sim import campaign
from repro.sim.campaign import _sample_by_key
from repro.sim.faults import compatibility_key, max_compatible_faults


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
        result = run_sweep(
            fpva, suite.all_vectors(), fault_counts=(2,), trials=50
        )[2]
        assert result.trials == 50
        assert result.all_detected, result.undetected_examples

    def test_sweep_shape(self, tiny_suite):
        fpva, suite = tiny_suite
        sweep = run_sweep(
            fpva, suite.all_vectors(), fault_counts=(1, 2, 3), trials=20
        )
        assert set(sweep) == {1, 2, 3}
        for k, result in sweep.items():
            assert result.num_faults == k
            assert result.detection_rate >= 0.99  # paper: all detected


def _stored_suite(name):
    """A pinned suite from ``perfbench/fixtures`` (the benchmark's own)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "suites.py"
    spec = importlib.util.spec_from_file_location("perfbench_suites", path)
    suites = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suites)
    return suites.load_suite(name)


class TestSamplerNearTheBound:
    @pytest.mark.parametrize("scenario_name", ["stuck-at", "mixed"])
    def test_every_count_up_to_the_bound_samples(self, tiny, scenario_name):
        """Every k up to max_compatible_faults draws a compatible set on a
        full 3x3 (34 for both universes); rejection alone gives up from
        k = 28.  One more fault than the bound still raises."""
        scenario = get_scenario(scenario_name)
        universe = scenario.universe(tiny)
        bound = max_compatible_faults(universe)
        assert bound == 34
        rng = random.Random(5)
        for k in range(1, bound + 1):
            faults = scenario.sample(universe, rng, k)
            assert len(faults) == k
            assert faults_compatible(faults), k
        with pytest.raises(RuntimeError, match="could not sample 35"):
            scenario.sample(universe, rng, bound + 1)

    def test_exact_sampler_is_uniform(self, tiny):
        """3 valves x SA0/SA1 at k = 2 give 12 compatible sets.  Over
        24,000 exact draws the chi-square statistic stays below 31.26,
        the 0.999 quantile for 11 degrees of freedom."""
        universe = [
            kind(valve) for valve in tiny.valves[:3] for kind in (StuckAt0, StuckAt1)
        ]
        rng = random.Random(1)
        draws = 24_000

        def key(i):
            return compatibility_key(universe[i])

        counts = Counter(
            frozenset(universe[i] for i in _sample_by_key(len(universe), key, 2, rng))
            for _ in range(draws)
        )
        assert len(counts) == 12
        assert all(faults_compatible(tuple(fault_set)) for fault_set in counts)
        expected = draws / len(counts)
        chi2 = sum((n - expected) ** 2 / expected for n in counts.values())
        assert chi2 < 31.26, chi2

    def test_screening_sweeps_never_draw_exactly(self, monkeypatch):
        """The k = 1..5 sweeps over the stored full 8x8 suite draw every
        chip by rejection (a 5-set of its 516 faults is compatible with
        probability 0.99), so their results are the rejection sampler's."""

        def refuse(n, key, k, rng):
            raise AssertionError(f"exact sampler reached at k = {k}")

        monkeypatch.setattr(campaign, "_sample_by_key", refuse)
        suite = _stored_suite("full-8x8")
        sweep = run_sweep(
            suite.fpva, suite.all_vectors(), fault_counts=(1, 2, 3, 4, 5),
            trials=2000,
        )
        assert [sweep[k].trials for k in (1, 2, 3, 4, 5)] == [2000] * 5


class TestDiagnosis:
    def test_single_fault_localization(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), universe=stuck_at_faults(fpva)
        )
        target = StuckAt0(fpva.valves[4])
        report = dictionary.diagnose_chip(ChipUnderTest(fpva, [target]))
        assert report.localized
        assert (target,) in report.candidates

    def test_fault_free_syndrome_empty(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), universe=stuck_at_faults(fpva)
        )
        report = dictionary.diagnose_chip(ChipUnderTest(fpva))
        # An empty syndrome is not in the dictionary (only faulty entries).
        assert report.syndrome == ()

    def test_resolution_reasonable(self, tiny_suite):
        fpva, suite = tiny_suite
        dictionary = FaultDictionary(
            fpva, suite.all_vectors(), universe=stuck_at_faults(fpva)
        )
        assert dictionary.distinct_syndromes > fpva.valve_count / 2
        assert dictionary.resolution() < 4.0
