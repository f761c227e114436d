"""Scenario registry, the new fault kinds, and end-to-end workloads."""

import random

import pytest

from repro.core import generate_suite
from repro.engine import (
    FaultScenario,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.engine.scenarios import _REGISTRY, StuckAtScenario
from repro.fpva import full_layout, table1_layout
from repro.sim import (
    ChannelBlocked,
    ChipUnderTest,
    FaultDictionary,
    IntermittentStuckAt,
    StuckAt0,
    StuckAt1,
    Tester,
    faults_compatible,
)
from repro.sim.campaign import run_trials


@pytest.fixture(scope="module")
def bundle():
    fpva = full_layout(4, 4, name="scenario-4x4")
    return fpva, generate_suite(fpva).all_vectors()


@pytest.fixture(scope="module")
def channel_bundle():
    """Table I 5x5 — the layout with a permanent transport channel."""
    fpva = table1_layout(5)
    return fpva, generate_suite(fpva).all_vectors()


class TestRegistry:
    def test_builtin_scenarios_registered(self):
        assert {"stuck-at", "intermittent", "blockage", "mixed"} <= set(
            scenario_names()
        )

    def test_all_satisfy_protocol(self):
        for scenario in iter_scenarios():
            assert isinstance(scenario, FaultScenario)

    def test_unknown_name_lists_registered(self):
        with pytest.raises(KeyError, match="stuck-at"):
            get_scenario("no-such-workload")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scenario(StuckAtScenario())

    def test_replace_and_custom_registration(self):
        custom = StuckAtScenario(name="custom-test-only")
        try:
            register_scenario(custom)
            assert get_scenario("custom-test-only") is custom
            replacement = StuckAtScenario(
                name="custom-test-only", include_control_leaks=False
            )
            assert (
                register_scenario(replacement, replace=True) is replacement
            )
            assert get_scenario("custom-test-only") is replacement
        finally:
            _REGISTRY.pop("custom-test-only", None)


class TestIntermittentFault:
    def test_rate_validated(self, bundle):
        fpva, _ = bundle
        with pytest.raises(ValueError, match="rate"):
            IntermittentStuckAt(fpva.valves[0], rate=0.0)
        with pytest.raises(ValueError, match="rate"):
            IntermittentStuckAt(fpva.valves[0], rate=1.5)

    def test_firing_is_deterministic_per_vector(self, bundle):
        fpva, vectors = bundle
        fault = IntermittentStuckAt(fpva.valves[0], rate=0.5)
        twin = IntermittentStuckAt(fpva.valves[0], rate=0.5)
        fired = [fault.fires_on(v.name) for v in vectors]
        assert fired == [twin.fires_on(v.name) for v in vectors]
        assert True in fired and False in fired  # actually intermittent

    def test_salt_changes_firing_pattern(self, bundle):
        fpva, vectors = bundle
        a = IntermittentStuckAt(fpva.valves[0], rate=0.5, salt=0)
        b = IntermittentStuckAt(fpva.valves[0], rate=0.5, salt=1)
        assert [a.fires_on(v.name) for v in vectors] != [
            b.fires_on(v.name) for v in vectors
        ]

    def test_chip_behaviour_order_independent(self, bundle):
        fpva, vectors = bundle
        tester = Tester(fpva)
        chip = ChipUnderTest(
            fpva, [IntermittentStuckAt(fpva.valves[3], stuck_open=True)]
        )
        forward = [tester.apply(chip, v).observed for v in vectors]
        backward = [tester.apply(chip, v).observed for v in reversed(vectors)]
        assert forward == list(reversed(backward))

    def test_requires_vector_identity(self, bundle):
        fpva, _ = bundle
        chip = ChipUnderTest(fpva, [IntermittentStuckAt(fpva.valves[0])])
        with pytest.raises(ValueError, match="vector identity"):
            chip.effective_open_valves(frozenset())


class TestBlockageFault:
    def test_blocked_valve_acts_stuck_closed(self, bundle):
        fpva, vectors = bundle
        valve = fpva.valves[0]
        blocked = ChipUnderTest(fpva, [ChannelBlocked(valve)])
        stuck = ChipUnderTest(fpva, [StuckAt0(valve)])
        tester = Tester(fpva)
        for vector in vectors:
            assert (
                tester.apply(blocked, vector).observed
                == tester.apply(stuck, vector).observed
            )

    def test_blocked_channel_is_detectable(self, channel_bundle):
        """A blocked *permanent channel* — outside the paper's fault space —
        still changes some reading under the generated suite."""
        fpva, vectors = channel_bundle
        channel = sorted(fpva.channels)[0]
        chip = ChipUnderTest(fpva, [ChannelBlocked(channel)])
        assert Tester(fpva).run(chip, vectors).fault_detected

    def test_blockage_on_unknown_edge_rejected(self, bundle):
        fpva, _ = bundle
        from repro.fpva.geometry import Cell, Edge

        with pytest.raises(ValueError, match="non-existent"):
            ChipUnderTest(
                fpva, [ChannelBlocked(Edge(Cell(90, 90), Cell(90, 91)))]
            )


class TestCompatibility:
    def test_seat_exclusive_rules(self, bundle):
        fpva, _ = bundle
        v = fpva.valves[0]
        assert not faults_compatible(
            [IntermittentStuckAt(v), StuckAt0(v)]
        )
        assert not faults_compatible([ChannelBlocked(v), StuckAt1(v)])
        assert not faults_compatible(
            [IntermittentStuckAt(v), ChannelBlocked(v)]
        )
        w = fpva.valves[1]
        assert faults_compatible([IntermittentStuckAt(v), StuckAt0(w)])
        assert faults_compatible([ChannelBlocked(v), ChannelBlocked(w)])


class TestScenariosEndToEnd:
    """Acceptance: every scenario runs campaign + diagnosis end to end."""

    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_campaign_end_to_end(self, bundle, scenario_name):
        fpva, vectors = bundle
        result = run_trials(
            fpva,
            vectors,
            num_faults=2,
            trials=30,
            seed=9,
            scenario=get_scenario(scenario_name),
        )
        assert result.trials == 30
        assert 0 <= result.detected <= 30
        # Injected sets the suite missed are reported for triage.
        assert len(result.undetected_examples) <= 10

    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_diagnosis_end_to_end(self, bundle, scenario_name):
        fpva, vectors = bundle
        scenario = get_scenario(scenario_name)
        universe = scenario.universe(fpva)
        dictionary = FaultDictionary(fpva, vectors, universe=universe)
        rng = random.Random(2)
        faults = scenario.sample(universe, rng, 1)
        report = dictionary.diagnose_chip(ChipUnderTest(fpva, faults))
        if report.localized:
            assert faults in report.candidates

    def test_paper_scenario_detects_everything(self, bundle):
        """The stuck-at scenario reproduces the paper's all-detected result."""
        fpva, vectors = bundle
        result = run_trials(
            fpva,
            vectors,
            num_faults=3,
            trials=40,
            seed=1,
            scenario=get_scenario("stuck-at"),
        )
        assert result.all_detected, result.undetected_examples
