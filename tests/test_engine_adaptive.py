"""Adaptive diagnosis: differential equivalence with the full-suite path
and with the pure-Python reference scheduler in ``tests/oracle.py``."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import generate_suite
from repro.core.vectors import TestVector, VectorKind
from repro.engine import AdaptiveDiagnoser, adaptive_diagnose, get_scenario, scenario_names
from repro.fpva import FPVABuilder, Side, full_layout
from repro.fpva.geometry import Cell
from repro.sim import ChipUnderTest, FaultDictionary, PressureSimulator, StuckAt0
from tests import oracle

#: Session budgets every differential case runs under.
BUDGETS = (None, 0, 1, 3)


@pytest.fixture(scope="module")
def small_bundle():
    fpva = full_layout(4, 4, name="adaptive-4x4")
    suite = generate_suite(fpva)
    return fpva, suite.all_vectors()


def _assert_matches_full_suite(fpva, vectors, scenario, seed, chips=4):
    """Adaptive and full-suite verdicts agree for in-space chips."""
    universe = scenario.universe(fpva)
    dictionary = FaultDictionary(fpva, vectors, universe=universe)
    engine = AdaptiveDiagnoser(dictionary)
    rng = random.Random(seed)
    for _ in range(chips):
        chip = ChipUnderTest(fpva, scenario.sample(universe, rng, 1))
        full = dictionary.diagnose_chip(chip)
        session = engine.diagnose(chip)
        assert session.report.candidates == full.candidates, chip.faults
        assert session.report.syndrome == full.syndrome, chip.faults
        assert session.num_applied <= len(vectors)
    clean = engine.diagnose(ChipUnderTest(fpva))
    full_clean = dictionary.diagnose_chip(ChipUnderTest(fpva))
    assert clean.report.syndrome == full_clean.syndrome == ()
    assert clean.report.candidates == full_clean.candidates == []


def _session_trace(session):
    """Everything a session decides, compared with exact ``==``."""
    return (
        [outcome.vector.name for outcome in session.outcomes],
        [
            (s.vector_name, s.entropy_bits, s.hypotheses_before, s.hypotheses_after)
            for s in session.steps
        ],
        session.exhausted_budget,
        session.report.syndrome,
        session.report.candidates,
    )


def _differential_chips(fpva, scenario, universe, cardinality, rng, draws=2):
    """The clean chip, singles, doubles and off-model chips: one fault more
    than the dictionary models, and every valve stuck closed."""
    chips = [
        ChipUnderTest(fpva),
        ChipUnderTest(fpva, [StuckAt0(v) for v in fpva.valves]),
    ]
    for k in sorted({1, 2, cardinality + 1}):
        chips += [
            ChipUnderTest(fpva, scenario.sample(universe, rng, k))
            for _ in range(draws)
        ]
    return chips


def _synthetic_vectors(fpva, rng, count=10):
    """Random open sets with simulator-derived expectations, for layouts
    the suite generator does not cover (several meters).  At least half
    the valves open, so faults move several meters at once and a vector's
    readouts split into many ids."""
    simulator = PressureSimulator(fpva)
    valves = list(fpva.valves)
    vectors = []
    for i in range(count):
        opened = frozenset(
            rng.sample(valves, rng.randrange(len(valves) // 2, len(valves) + 1))
        )
        vectors.append(
            TestVector(
                name=f"rv{i}",
                kind=VectorKind.BASELINE,
                open_valves=opened,
                expected=simulator.meter_readings(opened),
            )
        )
    return vectors


def _assert_schedule_matches_reference(dictionary, chips):
    """Production and the reference scheduler run identical sessions."""
    engine = AdaptiveDiagnoser(dictionary)
    reference = oracle.ReferenceAdaptiveDiagnoser(dictionary)
    for chip in chips:
        for budget in BUDGETS:
            got = engine.diagnose(chip, max_vectors=budget)
            want = reference.diagnose(chip, max_vectors=budget)
            assert _session_trace(got) == _session_trace(want), (chip.faults, budget)
    return engine


class TestEquivalenceFixedLayouts:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_every_scenario_matches_full_suite(self, small_bundle, scenario_name):
        fpva, vectors = small_bundle
        _assert_matches_full_suite(fpva, vectors, get_scenario(scenario_name), seed=11)

    def test_schedule_equals_reference(self, small_bundle):
        """Every step, tie-break and report equals the reference scheduler:
        every scenario at cardinality 1 and 2, every budget, a four-meter
        array whose readouts take up to 11 ids per vector (enough buckets
        that a numpy entropy sum would move the last bit), a suite with a
        duplicated vector, a vector with no expectations, and an empty
        universe."""
        rng = random.Random(7)
        four_meters = (
            FPVABuilder(4, 4, name="adaptive-4-meters")
            .source(Side.WEST, 1)
            .sink(Side.EAST, 1, name="o1")
            .sink(Side.EAST, 2, name="o2")
            .sink(Side.EAST, 3, name="o3")
            .sink(Side.EAST, 4, name="o4")
            .build()
        )
        meters = (four_meters, _synthetic_vectors(four_meters, rng))
        for layout, suite in (small_bundle, meters):
            for name in scenario_names():
                scenario = get_scenario(name)
                universe = scenario.universe(layout)
                for cardinality in (1, 2):
                    dictionary = FaultDictionary(
                        layout, suite, universe=universe, max_cardinality=cardinality
                    )
                    _assert_schedule_matches_reference(
                        dictionary,
                        _differential_chips(
                            layout, scenario, universe, cardinality, rng
                        ),
                    )

        fpva, vectors = small_bundle
        scenario = get_scenario("stuck-at")
        universe = scenario.universe(fpva)
        chips = _differential_chips(fpva, scenario, universe, 1, rng)
        # The copy ties the vector the first step picks exactly; the lower
        # index (the original) must win, so the copy is never applied.
        first = AdaptiveDiagnoser(FaultDictionary(fpva, vectors, universe=universe))
        winner = first.diagnose(chips[1]).steps[0].vector_name
        copy = replace(next(v for v in vectors if v.name == winner), name="copy")
        engine = _assert_schedule_matches_reference(
            FaultDictionary(fpva, [*vectors, copy], universe=universe), chips
        )
        assert all(
            o.vector.name != "copy"
            for chip in chips
            for o in engine.diagnose(chip).outcomes
        )

        unexpected = replace(vectors[0], name="no-expectations", expected={})
        _assert_schedule_matches_reference(
            FaultDictionary(fpva, [*vectors, unexpected], universe=universe), chips
        )
        _assert_schedule_matches_reference(
            FaultDictionary(fpva, vectors, universe=[]), chips
        )

    def test_double_fault_dictionary(self, small_bundle):
        """Cardinality-2 hypothesis spaces localize double faults too."""
        fpva, vectors = small_bundle
        dictionary = FaultDictionary(
            fpva, vectors, include_control_leaks=False, max_cardinality=2
        )
        engine = AdaptiveDiagnoser(dictionary)
        rng = random.Random(5)
        scenario = get_scenario("stuck-at")
        universe = [f for f in scenario.universe(fpva) if hasattr(f, "valve")]
        for _ in range(3):
            faults = scenario.sample(universe, rng, 2)
            chip = ChipUnderTest(fpva, faults)
            full = dictionary.diagnose_chip(chip)
            session = engine.diagnose(chip)
            assert session.report.candidates == full.candidates
            assert session.report.syndrome == full.syndrome


@st.composite
def diagnosis_layouts(draw):
    """Small randomized layouts, kept cheap for per-example generation."""
    nr = draw(st.integers(3, 4))
    nc = draw(st.integers(3, 4))
    builder = FPVABuilder(nr, nc, name=f"adaptive-hypo-{nr}x{nc}")
    if draw(st.booleans()):
        builder.channel(Cell(nr - 1, 1), "east", 1)
    builder.source(Side.WEST, 1).sink(Side.EAST, nr)
    return builder.build()


@pytest.mark.slow
class TestEquivalenceProperty:
    """Satellite: differential property over randomized layouts."""

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(diagnosis_layouts(), st.integers(0, 2**16))
    def test_adaptive_equals_full_suite_all_scenarios(self, fpva, seed):
        vectors = generate_suite(fpva).all_vectors()
        for name in scenario_names():
            _assert_matches_full_suite(
                fpva, vectors, get_scenario(name), seed=seed, chips=2
            )

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(diagnosis_layouts(), st.integers(0, 2**16), st.sampled_from((1, 2)))
    def test_schedule_equals_reference_all_scenarios(self, fpva, seed, cardinality):
        vectors = generate_suite(fpva).all_vectors()
        rng = random.Random(seed)
        for name in scenario_names():
            scenario = get_scenario(name)
            universe = scenario.universe(fpva)
            dictionary = FaultDictionary(
                fpva, vectors, universe=universe, max_cardinality=cardinality
            )
            _assert_schedule_matches_reference(
                dictionary,
                _differential_chips(fpva, scenario, universe, cardinality, rng),
            )


class TestDeterministicScheduling:
    def test_best_split_breaks_ties_to_lowest_vector_index(self, small_bundle):
        """Equal-entropy candidates resolve to the lowest vector index, so
        sessions replay identically across platforms and runs."""
        fpva, vectors = small_bundle
        engine = AdaptiveDiagnoser(FaultDictionary(fpva, vectors))
        alive = np.arange(len(engine._weights))
        unapplied = np.ones(len(vectors), dtype=bool)
        chosen, best_entropy = engine._best_split(alive, unapplied)
        assert chosen is not None

        # Recompute every vector's entropy independently; the winner must
        # be the *first* index attaining the maximum.
        weights = engine._weights.tolist()
        sig = engine._sig.tolist()
        total = float(sum(weights))
        entropies = {}
        for vi in range(len(vectors)):
            buckets: dict[int, int] = {}
            for row in alive.tolist():
                sig_id = sig[row][vi]
                buckets[sig_id] = buckets.get(sig_id, 0) + weights[row]
            if len(buckets) < 2:
                continue
            entropies[vi] = -sum(
                (m / total) * math.log2(m / total) for m in buckets.values()
            )
        top = max(entropies.values())
        assert best_entropy == top
        assert chosen == min(vi for vi, e in entropies.items() if e == top)

    def test_sessions_replay_identically(self, small_bundle):
        fpva, vectors = small_bundle
        dictionary = FaultDictionary(fpva, vectors)
        chip = ChipUnderTest(fpva, [StuckAt0(fpva.valves[3])])
        runs = [AdaptiveDiagnoser(dictionary).diagnose(chip) for _ in range(2)]
        assert [s.vector_name for s in runs[0].steps] == [
            s.vector_name for s in runs[1].steps
        ]
        assert runs[0].report == runs[1].report


class TestSessionMechanics:
    def test_early_stop_saves_vectors(self, small_bundle):
        fpva, vectors = small_bundle
        dictionary = FaultDictionary(fpva, vectors)
        session = adaptive_diagnose(
            dictionary, ChipUnderTest(fpva, [StuckAt0(fpva.valves[0])])
        )
        assert 0 < session.num_applied < len(vectors)
        assert session.saved_fraction > 0.0
        assert not session.exhausted_budget
        # The trace records one positive-entropy step per application.
        assert len(session.steps) == session.num_applied
        assert all(step.entropy_bits > 0 for step in session.steps)

    def test_budget_cap_reported(self, small_bundle):
        fpva, vectors = small_bundle
        dictionary = FaultDictionary(fpva, vectors)
        engine = AdaptiveDiagnoser(dictionary)
        chip = ChipUnderTest(fpva, [StuckAt0(fpva.valves[2])])
        capped = engine.diagnose(chip, max_vectors=1)
        assert capped.num_applied == 1
        assert capped.exhausted_budget
        # A capped session may stay ambiguous, but never loses the truth:
        full = dictionary.diagnose_chip(chip)
        assert set(full.candidates) <= set(capped.report.candidates)

    def test_out_of_space_chip_verdict_consistent(self, small_bundle):
        """A chip the dictionary cannot model gets a best-effort verdict:
        every returned candidate explains every applied outcome."""
        fpva, vectors = small_bundle
        dictionary = FaultDictionary(fpva, vectors, include_control_leaks=False)
        faults = [StuckAt0(v) for v in fpva.valves]  # everything broken
        session = AdaptiveDiagnoser(dictionary).diagnose(
            ChipUnderTest(fpva, faults)
        )
        assert session.outcomes  # something observable happened
        for candidate in session.report.candidates:
            explainer = ChipUnderTest(fpva, list(candidate))
            for outcome in session.outcomes:
                replay = dictionary.tester.apply(explainer, outcome.vector)
                assert replay.observed == outcome.observed


@pytest.mark.slow
class TestAcceptance8x8:
    def test_thirty_percent_fewer_vectors_on_8x8(self):
        """Acceptance bar: ≥30% fewer applied vectors on average, 8x8."""
        fpva = full_layout(8, 8, name="accept-8x8")
        vectors = generate_suite(fpva).all_vectors()
        scenario = get_scenario("stuck-at")
        universe = scenario.universe(fpva)
        dictionary = FaultDictionary(fpva, vectors, universe=universe)
        engine = AdaptiveDiagnoser(dictionary)
        rng = random.Random(0)
        applied = []
        for _ in range(30):
            chip = ChipUnderTest(fpva, scenario.sample(universe, rng, 1))
            session = engine.diagnose(chip)
            full = dictionary.diagnose_chip(chip)
            assert session.report.candidates == full.candidates
            applied.append(session.num_applied)
        mean_applied = sum(applied) / len(applied)
        assert mean_applied <= 0.7 * len(vectors), (mean_applied, len(vectors))
