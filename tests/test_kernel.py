"""Kernel/legacy equivalence: the compiled bitmask path must be exact.

The compiled :class:`ReachabilityKernel` and its batched consumers
(dictionary build, campaign backend) are pure accelerations — every test
here asserts *exact* equality against the retained pure-Python reference
path, over randomized arrays, fault sets spanning all five fault kinds,
and vectors.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.engine import AdaptiveDiagnoser, get_scenario, scenario_names
from repro.fpva import FPVABuilder, Side, full_layout, table1_layout
from repro.fpva.geometry import Cell
from repro.sim import (
    BatchEvaluator,
    ChipUnderTest,
    CompiledFaultSet,
    FaultDictionary,
    PressureSimulator,
    ReachabilityKernel,
)
from repro.sim.campaign import run_trials
from repro.sim.kernel import _pack_words, _unpack_words


def _object_engine(fpva):
    """A session pinned to the pure-Python object-graph reference engine."""
    return ExecutionContext(fpva, engine="object")


class TestPackRoundTrip:
    """Satellite: the packbits fast path is an exact bool<->word bijection."""

    @settings(max_examples=60, deadline=None)
    @given(
        cols=st.integers(1, 5),
        batch=st.integers(1, 200),
        fill=st.sampled_from(["random", "zeros", "ones"]),
        seed=st.integers(0, 2**16),
    )
    def test_roundtrip(self, cols, batch, fill, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        if fill == "random":
            bools = rng.random((batch, cols)) < 0.5
        else:
            bools = np.full((batch, cols), fill == "ones", dtype=bool)
        words = _pack_words(bools)
        assert words.shape == (cols, (batch + 63) // 64)
        assert words.dtype == np.uint64
        assert np.array_equal(_unpack_words(words, batch), bools)

    def test_tail_word_padding_is_zero(self):
        """Bits past the batch in the last word must stay clear — the
        propagation sweep ORs whole words, so tail garbage would leak
        between scenarios."""
        import numpy as np

        bools = np.ones((65, 3), dtype=bool)  # 2 words, 63 pad bits
        words = _pack_words(bools)
        assert words.shape == (3, 2)
        assert (words[:, 1] == np.uint64(1)).all()


def _random_vectors(fpva, rng, count=8):
    """Synthetic vectors with simulator-derived expectations (covers
    layouts the ILP suite generator does not support)."""
    from repro.core.vectors import TestVector, VectorKind

    sim = PressureSimulator(fpva)
    valves = list(fpva.valves)
    return [
        TestVector(
            name=f"rv{i}",
            kind=VectorKind.BASELINE,
            open_valves=(opened := frozenset(
                rng.sample(valves, rng.randrange(len(valves) + 1))
            )),
            expected=sim.meter_readings(opened),
        )
        for i in range(count)
    ]


@pytest.fixture(scope="module")
def arrays(two_sink_array):
    return (
        full_layout(3, 3, name="kernel-3x3"),
        table1_layout(5),  # permanent channel edge
        two_sink_array,  # multiple meters
    )


class TestSingleQueryEquivalence:
    def test_random_open_and_blocked_sets(self, arrays):
        """meter_readings/pressurized_nodes == the retained legacy BFS."""
        rng = random.Random(42)
        for fpva in arrays:
            sim = PressureSimulator(fpva)
            valves = list(fpva.valves)
            edges = list(fpva.flow_edges)
            for _ in range(120):
                open_set = frozenset(
                    rng.sample(valves, rng.randrange(len(valves) + 1))
                )
                blocked = frozenset(rng.sample(edges, rng.randrange(0, 3)))
                fast = sim.meter_readings(open_set, blocked=blocked)
                ref = sim.meter_readings_legacy(open_set, blocked=blocked)
                assert fast == ref
                assert list(fast) == list(ref)  # same key order too
                assert sim.pressurized_nodes(
                    open_set, blocked=blocked
                ) == sim.pressurized_nodes_legacy(open_set, blocked=blocked)

    def test_open_iterable_coerced_once(self, arrays):
        """Generators (single-pass iterables) are valid open sets."""
        fpva = arrays[0]
        sim = PressureSimulator(fpva)
        all_open = sim.meter_readings(frozenset(fpva.valves))
        assert sim.meter_readings(v for v in fpva.valves) == all_open
        assert sim.pressurized_nodes(
            v for v in fpva.valves
        ) == sim.pressurized_nodes_legacy(frozenset(fpva.valves))

    def test_non_valve_edges_in_open_set_are_noops(self, arrays):
        """Channel edges in the commanded set are ignored, as in legacy."""
        fpva = table1_layout(5)
        sim = PressureSimulator(fpva)
        channel = next(iter(fpva.channels))
        opened = frozenset(fpva.valves[:5]) | {channel}
        assert sim.meter_readings(opened) == sim.meter_readings_legacy(opened)

    def test_kernel_round_trips_through_pickle(self, arrays):
        """Campaign workers receive kernels by pickling."""
        fpva = arrays[1]
        kernel = ReachabilityKernel(fpva)
        clone = pickle.loads(pickle.dumps(kernel))
        mask = kernel.valve_mask(fpva.valves[::2])
        assert clone.readings(mask) == kernel.readings(mask)


class TestCompiledFaultSetEquivalence:
    def test_effective_masks_match_chip_all_fault_kinds(self, arrays):
        """CompiledFaultSet replays ChipUnderTest.effective_state exactly.

        The mixed scenario draws every fault kind (SA0, SA1, ControlLeak,
        IntermittentStuckAt, ChannelBlocked).
        """
        rng = random.Random(7)
        scenario = get_scenario("mixed")
        for fpva in arrays:
            vectors = _random_vectors(fpva, rng, count=10)
            kernel = ReachabilityKernel(fpva)
            evaluator = BatchEvaluator(kernel, vectors)
            universe = scenario.universe(fpva)
            for _ in range(40):
                faults = scenario.sample(universe, rng, rng.choice((1, 2, 3)))
                chip = ChipUnderTest(fpva, faults)
                compiled = CompiledFaultSet(kernel, faults)
                for vi, vector in enumerate(vectors):
                    open_ref, blocked_ref = chip.effective_state(vector)
                    open_mask, blocked_mask = compiled.effective_masks(
                        evaluator.commanded_masks[vi], vector.name
                    )
                    assert open_mask == kernel.valve_mask(open_ref)
                    assert blocked_mask == kernel.edge_mask(blocked_ref)

    def test_unknown_valve_rejected_like_chip(self, arrays):
        fpva = arrays[0]
        other = full_layout(6, 6, name="kernel-other")
        kernel = ReachabilityKernel(fpva)
        from repro.sim import StuckAt0

        bogus = StuckAt0(other.valves[-1])
        with pytest.raises(ValueError):
            CompiledFaultSet(kernel, (bogus,))
        with pytest.raises(ValueError):
            ChipUnderTest(fpva, (bogus,))


class TestDictionaryEquivalence:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_tables_identical_per_scenario(self, arrays, scenario_name):
        """Kernel-built dictionaries equal legacy ones — same syndromes,
        same candidate lists, same insertion order."""
        scenario = get_scenario(scenario_name)
        rng = random.Random(3)
        for fpva in arrays[:2]:
            vectors = generate_suite(fpva).all_vectors()
            universe = scenario.universe(fpva)
            sub = rng.sample(universe, min(24, len(universe)))
            kwargs = dict(universe=sub, max_cardinality=2)
            fast = FaultDictionary(
                fpva, vectors, context=ExecutionContext(fpva), **kwargs
            )
            ref = FaultDictionary(
                fpva, vectors, context=_object_engine(fpva), **kwargs
            )
            assert list(fast._table.items()) == list(ref._table.items())
            assert fast.distinct_syndromes == ref.distinct_syndromes
            assert fast.resolution() == ref.resolution()

    def test_default_universe_with_leaks(self, tiny):
        vectors = generate_suite(tiny).all_vectors()
        fast = FaultDictionary(tiny, vectors, context=ExecutionContext(tiny))
        ref = FaultDictionary(tiny, vectors, context=_object_engine(tiny))
        assert list(fast._table.items()) == list(ref._table.items())

    def test_partial_expectations_fall_back_to_legacy(self, two_sink_array):
        """Vectors not covering every sink still build correctly."""
        from repro.core.vectors import TestVector, VectorKind

        fpva = two_sink_array
        vectors = _random_vectors(fpva, random.Random(2), count=6)
        partial = TestVector(
            name="partial",
            kind=VectorKind.BASELINE,
            open_valves=frozenset(fpva.valves[:3]),
            expected={"o1": False},  # o2 missing
        )
        suite = vectors + [partial]
        with pytest.warns(UserWarning, match="falling\\s+back"):
            fast = FaultDictionary(fpva, suite, context=ExecutionContext(fpva))
        ref = FaultDictionary(fpva, suite, context=_object_engine(fpva))
        assert list(fast._table.items()) == list(ref._table.items())


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_adaptive_and_full_suite_verdicts(self, small, scenario_name):
        """Kernel-backed dictionary + adaptive engine reproduce the legacy
        full-suite reports for chips of every scenario."""
        scenario = get_scenario(scenario_name)
        vectors = generate_suite(small).all_vectors()
        universe = scenario.universe(small)
        fast = FaultDictionary(small, vectors, universe=universe)
        ref = FaultDictionary(
            small, vectors, universe=universe, context=_object_engine(small)
        )
        engine = AdaptiveDiagnoser(fast)
        rng = random.Random(19)
        for _ in range(4):
            chip = ChipUnderTest(small, scenario.sample(universe, rng, 1))
            fast_report = fast.diagnose_chip(chip)
            ref_report = ref.diagnose_chip(chip)
            session = engine.diagnose(chip)
            assert fast_report.syndrome == ref_report.syndrome
            assert fast_report.candidates == ref_report.candidates
            assert session.report.syndrome == ref_report.syndrome
            assert session.report.candidates == ref_report.candidates


class TestCampaignEquivalence:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_backends_bit_identical(self, small, scenario_name):
        scenario = get_scenario(scenario_name)
        vectors = generate_suite(small).all_vectors()
        for k in (1, 2):
            kwargs = dict(
                num_faults=k, trials=40, seed=13 + k, scenario=scenario
            )
            fast = run_trials(
                small, vectors, context=ExecutionContext(small), **kwargs
            )
            ref = run_trials(
                small, vectors, context=_object_engine(small), **kwargs
            )
            assert fast.trials == ref.trials
            assert fast.detected == ref.detected
            assert fast.undetected_examples == ref.undetected_examples


@st.composite
def kernel_layouts(draw):
    """Small randomized arrays: optional channel and obstacle placements."""
    nr = draw(st.integers(3, 5))
    nc = draw(st.integers(3, 5))
    builder = FPVABuilder(nr, nc, name=f"kernel-hypo-{nr}x{nc}")
    if draw(st.booleans()):
        builder.channel(Cell(nr - 1, 1), "east", draw(st.integers(1, 2)))
    builder.source(Side.WEST, 1).sink(Side.EAST, nr)
    return builder.build()


@pytest.mark.slow
class TestRandomizedProperty:
    """Satellite: randomized kernel/legacy equivalence property."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(kernel_layouts(), st.integers(0, 2**16))
    def test_readings_dictionary_and_verdicts_match(self, fpva, seed):
        rng = random.Random(seed)
        vectors = generate_suite(fpva).all_vectors()
        sim = PressureSimulator(fpva)
        scenario = get_scenario("mixed")
        universe = scenario.universe(fpva)

        # Readings under faulty effective states match the legacy BFS.
        for _ in range(10):
            faults = scenario.sample(universe, rng, rng.choice((1, 2)))
            chip = ChipUnderTest(fpva, faults)
            for vector in vectors:
                opened, blocked = chip.effective_state(vector)
                assert sim.meter_readings(
                    opened, blocked=blocked
                ) == sim.meter_readings_legacy(opened, blocked=blocked)

        # Dictionary tables and adaptive verdicts match the legacy build.
        sub = rng.sample(universe, min(16, len(universe)))
        fast = FaultDictionary(fpva, vectors, universe=sub, max_cardinality=2)
        ref = FaultDictionary(
            fpva, vectors, universe=sub, max_cardinality=2,
            context=_object_engine(fpva),
        )
        assert list(fast._table.items()) == list(ref._table.items())
        engine = AdaptiveDiagnoser(fast)
        for faults in ([], [sub[0]]):
            chip = ChipUnderTest(fpva, faults)
            session = engine.diagnose(chip)
            full = ref.diagnose_chip(chip)
            assert session.report.syndrome == full.syndrome
            assert session.report.candidates == full.candidates
