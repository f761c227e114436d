"""Kernel/oracle equivalence: the compiled bitmask path must be exact.

The compiled :class:`ReachabilityKernel` and its batched consumers
(dictionary build, campaign backend) are pure accelerations — every test
here asserts *exact* equality against the pure-Python reference in
``tests/oracle.py``, over randomized arrays, fault sets spanning all five
fault kinds, and vectors.
"""

from __future__ import annotations

import pickle
import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracle
from repro.context import ExecutionContext
from repro.core import generate_suite
from repro.engine import (
    AdaptiveDiagnoser,
    get_scenario,
    run_sweep,
    scenario_names,
)
from repro.fpva import FPVABuilder, Side, full_layout, table1_layout
from repro.fpva.geometry import Cell
from repro.sim import (
    BatchEvaluator,
    ChannelBlocked,
    ChipUnderTest,
    CompiledFaultSet,
    ControlLeak,
    FaultDictionary,
    IntermittentStuckAt,
    ReachabilityKernel,
    StuckAt0,
    StuckAt1,
    Tester,
    mix_seed,
    sample_fault_set,
)
from repro.sim.diagnosis import DEFAULT_CHUNK_SIZE
from repro.sim.kernel import _pack_words, _unique_rows, _unpack_words
from test_context import _layouts
from test_integration import small_layouts


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


class TestUniqueRows:
    """The scenario interner's dedupe is exact, in first-occurrence order."""

    @staticmethod
    def _reference(rows):
        seen: dict = {}
        inverse = [seen.setdefault(tuple(row), len(seen)) for row in rows.tolist()]
        first = {}
        for r, group in enumerate(inverse):
            first.setdefault(group, r)
        return [first[g] for g in range(len(seen))], inverse

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 300),
        cols=st.integers(1, 4),
        values=st.sampled_from([2, 5, 2**64 - 1]),
        zero_cols=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    def test_matches_first_occurrence_reference(
        self, n, cols, values, zero_cols, seed
    ):
        import numpy as np

        rng = np.random.default_rng(seed)
        rows = rng.integers(0, values, size=(n, cols), dtype=np.uint64)
        if zero_cols:
            rows[:, ::2] = 0
        first, inverse = _unique_rows(rows)
        assert (first.tolist(), inverse.tolist()) == self._reference(rows)

    def test_hash_collisions_fall_back_to_an_exact_sort(self, monkeypatch):
        """With every row hashing alike, different rows meet in the hash
        order, and the full-column sort still groups them exactly."""
        import numpy as np

        import repro.sim.kernel as kernel_module

        monkeypatch.setattr(kernel_module, "_HASH_MIX", np.uint64(0))
        rows = np.random.default_rng(4).integers(
            0, 3, size=(500, 3), dtype=np.uint64
        )
        first, inverse = _unique_rows(rows)
        assert (first.tolist(), inverse.tolist()) == self._reference(rows)


def _random_vectors(fpva, rng, count=8):
    """Synthetic vectors with simulator-derived expectations (covers
    layouts the ILP suite generator does not support)."""
    from repro.core.vectors import TestVector, VectorKind

    kernel = ReachabilityKernel(fpva)
    valves = list(fpva.valves)
    return [
        TestVector(
            name=f"rv{i}",
            kind=VectorKind.BASELINE,
            open_valves=(opened := frozenset(
                rng.sample(valves, rng.randrange(len(valves) + 1))
            )),
            expected=kernel.meter_readings(opened),
        )
        for i in range(count)
    ]


def _assert_slot_rows_intern_compiled_masks(fpva, rng, compiled_branch):
    """One bulk slot_rows call interns CompiledFaultSet's masks for every
    single fault of the mixed universe on the chosen branch, plus random
    sets of 1-3."""

    def complex_kind(faults):
        return any(
            isinstance(f, (ControlLeak, IntermittentStuckAt)) for f in faults
        )

    vectors = _random_vectors(fpva, rng, count=10)
    kernel = ReachabilityKernel(fpva)
    evaluator = BatchEvaluator(kernel, vectors)
    universe = get_scenario("mixed").universe(fpva)
    drawn = [(f,) for f in universe if complex_kind((f,)) == compiled_branch]
    for cardinality in (1, 2, 3):
        while len(drawn) < len(universe) + 10 * cardinality:
            faults = sample_fault_set(universe, cardinality, rng)
            if complex_kind(faults) == compiled_branch:
                drawn.append(faults)
    position = {fault: i for i, fault in enumerate(universe)}
    rows = evaluator.slot_rows(
        universe, [[position[f] for f in faults] for faults in drawn]
    )
    interned = evaluator.scenarios()
    for faults, row in zip(drawn, rows.tolist()):
        compiled = CompiledFaultSet(kernel, faults)
        assert [interned[slot] for slot in row] == [
            compiled.effective_masks(mask, vector.name)
            for mask, vector in zip(evaluator.commanded_masks, vectors)
        ], faults


def _assert_apply_matches_object_tester(fpva, rng):
    """Tester.apply reads every mixed-scenario chip of 1-3 faults as the
    object-level tester does; returns the fault kinds the chips carried."""
    vectors = _random_vectors(fpva, rng, count=10)
    tester = Tester(fpva)
    reference = oracle.object_tester(fpva)
    scenario = get_scenario("mixed")
    universe = scenario.universe(fpva)
    kinds = set()
    for cardinality in (1, 2, 3):
        for _ in range(20):
            faults = scenario.sample(universe, rng, cardinality)
            kinds.update(type(f) for f in faults)
            chip = ChipUnderTest(fpva, faults)
            for vector in vectors:
                got = tester.apply(chip, vector).observed
                want = reference.apply(chip, vector).observed
                assert got == want, (faults, vector.name)
                assert list(got) == list(want)
    return kinds


@pytest.fixture(scope="module")
def arrays(two_sink_array):
    return (
        full_layout(3, 3, name="kernel-3x3"),
        table1_layout(5),  # permanent channel edge
        two_sink_array,  # multiple meters
    )


class TestSingleQueryEquivalence:
    def test_random_open_and_blocked_sets(self, arrays):
        """Kernel readings/reach == the object-graph BFS, with and without
        blocked edges; the fault-free queries agree on unblocked sets."""
        rng = random.Random(42)
        for fpva in arrays:
            kernel = ReachabilityKernel(fpva)
            ref_sim = oracle.ObjectSimulator(fpva)
            valves = list(fpva.valves)
            edges = list(fpva.flow_edges)
            for _ in range(120):
                open_set = frozenset(
                    rng.sample(valves, rng.randrange(len(valves) + 1))
                )
                blocked = frozenset(rng.sample(edges, rng.randrange(0, 3)))
                masks = kernel.valve_mask(open_set), kernel.edge_mask(blocked)
                fast = kernel.readings(*masks)
                ref = ref_sim.meter_readings(open_set, blocked=blocked)
                assert fast == ref
                assert list(fast) == list(ref)  # same key order too
                reached = {
                    node
                    for node, hit in zip(kernel.nodes, kernel.reach(*masks))
                    if hit
                }
                assert reached == ref_sim.pressurized_nodes(
                    open_set, blocked=blocked
                )
                if not blocked:
                    assert kernel.meter_readings(open_set) == ref
                    assert kernel.pressurized_nodes(open_set) == reached

    def test_fault_free_queries_match_object_simulator(self, arrays):
        """meter_readings and pressurized_nodes answer as the object-graph
        simulator's namesakes do, so the helpers shared with the oracle
        accept either engine; non-grid layouts (obstacle plus channel,
        two sinks) included."""
        rng = random.Random(11)
        for fpva in (*arrays, *_layouts()):
            kernel = ReachabilityKernel(fpva)
            reference = oracle.ObjectSimulator(fpva)
            valves = list(fpva.valves)
            open_sets = [frozenset(), frozenset(valves)] + [
                frozenset(rng.sample(valves, rng.randrange(len(valves) + 1)))
                for _ in range(60)
            ]
            for open_set in open_sets:
                readings = kernel.meter_readings(open_set)
                assert readings == reference.meter_readings(open_set)
                assert list(readings) == list(reference.meter_readings(open_set))
                assert kernel.pressurized_nodes(open_set) == (
                    reference.pressurized_nodes(open_set)
                )

    def test_open_iterable_coerced_once(self, arrays):
        """Generators (single-pass iterables) are valid open sets."""
        fpva = arrays[0]
        kernel = ReachabilityKernel(fpva)
        all_open = kernel.meter_readings(frozenset(fpva.valves))
        assert kernel.meter_readings(v for v in fpva.valves) == all_open
        assert kernel.pressurized_nodes(
            v for v in fpva.valves
        ) == oracle.ObjectSimulator(fpva).pressurized_nodes(frozenset(fpva.valves))

    def test_non_valve_edges_in_open_set_are_noops(self, arrays):
        """Channel edges in the commanded set are ignored, as in the
        object-graph BFS."""
        fpva = table1_layout(5)
        kernel = ReachabilityKernel(fpva)
        channel = next(iter(fpva.channels))
        opened = frozenset(fpva.valves[:5]) | {channel}
        ref = oracle.ObjectSimulator(fpva).meter_readings(opened)
        assert kernel.meter_readings(opened) == ref

    def test_kernel_round_trips_through_pickle(self, arrays):
        """Campaign workers receive kernels by pickling."""
        fpva = arrays[1]
        kernel = ReachabilityKernel(fpva)
        clone = pickle.loads(pickle.dumps(kernel))
        mask = kernel.valve_mask(fpva.valves[::2])
        assert clone.readings(mask) == kernel.readings(mask)


class TestCompiledFaultSetEquivalence:
    def test_effective_masks_match_chip_all_fault_kinds(self, arrays):
        """CompiledFaultSet replays oracle.effective_state exactly.

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
                    open_ref, blocked_ref = oracle.effective_state(chip, vector)
                    open_mask, blocked_mask = compiled.effective_masks(
                        evaluator.commanded_masks[vi], vector.name
                    )
                    assert open_mask == kernel.valve_mask(open_ref)
                    assert blocked_mask == kernel.edge_mask(blocked_ref)

    @pytest.mark.parametrize("compiled_branch", [False, True])
    def test_slot_row_interns_the_compiled_masks(self, arrays, compiled_branch):
        """slot_rows interns, per set and vector, the (open, blocked) pair
        CompiledFaultSet.effective_masks gives.

        Stuck-at/blockage-only sets take slot_rows' word broadcast; sets
        holding a control leak or an intermittent fault take its compiled
        branch.  Both run at cardinalities 1-3, and every single
        fault of the universe is checked on its own.
        """
        rng = random.Random(19)
        for fpva in arrays:
            _assert_slot_rows_intern_compiled_masks(fpva, rng, compiled_branch)

    @pytest.mark.parametrize("compiled_branch", [False, True])
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(small_layouts(), st.integers(0, 2**16))
    def test_slot_row_interns_the_compiled_masks_on_random_layouts(
        self, compiled_branch, fpva, seed
    ):
        """The same property on random layouts with channels and obstacles."""
        rng = random.Random(seed)
        _assert_slot_rows_intern_compiled_masks(fpva, rng, compiled_branch)

    def test_unknown_valve_rejected_like_chip(self, arrays):
        fpva = arrays[0]
        other = full_layout(6, 6, name="kernel-other")
        kernel = ReachabilityKernel(fpva)
        from repro.sim import ChannelBlocked, StuckAt0

        bogus = StuckAt0(other.valves[-1])
        with pytest.raises(ValueError):
            CompiledFaultSet(kernel, (bogus,))
        with pytest.raises(ValueError):
            ChipUnderTest(fpva, (bogus,))
        # slot_rows raises the same error for a valve or a blocked edge
        # the kernel lacks.
        evaluator = BatchEvaluator(kernel, _random_vectors(fpva, random.Random(5)))
        for fault in (bogus, ChannelBlocked(other.flow_edges[-1])):
            with pytest.raises(ValueError) as compiled_error:
                CompiledFaultSet(kernel, (fault,))
            with pytest.raises(ValueError) as slot_row_error:
                evaluator.slot_rows((fault,), [(0,)])
            assert str(slot_row_error.value) == str(compiled_error.value)


class TestTesterEquivalence:
    """Tester.apply, on the kernel's fault masks, against the object-level
    fault model and BFS in tests/oracle.py."""

    def test_apply_matches_object_tester(self, arrays):
        rng = random.Random(23)
        kinds = set()
        for fpva in arrays:
            kinds |= _assert_apply_matches_object_tester(fpva, rng)
        assert kinds == {
            StuckAt0, StuckAt1, ControlLeak, IntermittentStuckAt, ChannelBlocked
        }

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(small_layouts(), st.integers(0, 2**16))
    def test_apply_matches_object_tester_on_random_layouts(self, fpva, seed):
        _assert_apply_matches_object_tester(fpva, random.Random(seed))


class TestDictionaryEquivalence:
    @pytest.mark.parametrize(
        "scenario_name, chunk_size",
        [
            pytest.param(name, DEFAULT_CHUNK_SIZE, id=name)
            for name in scenario_names()
        ]
        + [pytest.param(name, 7, id=f"{name}-chunk7") for name in scenario_names()],
    )
    def test_tables_identical_per_scenario(self, arrays, scenario_name, chunk_size):
        """Kernel-built dictionaries equal the reference ones — same
        syndromes, same candidate lists, same insertion order.  Seven-set
        chunks straddle the singles/pairs boundary and meet scenarios an
        earlier chunk interned."""
        scenario = get_scenario(scenario_name)
        rng = random.Random(3)
        for fpva in arrays[:2]:
            vectors = generate_suite(fpva).all_vectors()
            universe = scenario.universe(fpva)
            sub = rng.sample(universe, min(24, len(universe)))
            kwargs = dict(universe=sub, max_cardinality=2)
            fast = FaultDictionary(
                fpva,
                vectors,
                context=ExecutionContext(fpva),
                chunk_size=chunk_size,
                **kwargs,
            )
            ref = oracle.ReferenceDictionary(fpva, vectors, **kwargs)
            assert list(fast._table.items()) == list(ref._table.items())
            assert fast.distinct_syndromes == ref.distinct_syndromes
            assert fast.resolution() == ref.resolution()

    def test_default_universe_with_leaks(self, tiny):
        vectors = generate_suite(tiny).all_vectors()
        fast = FaultDictionary(tiny, vectors, context=ExecutionContext(tiny))
        ref = oracle.ReferenceDictionary(tiny, vectors)
        assert list(fast._table.items()) == list(ref._table.items())

    def test_partial_expectations_fall_back_to_legacy(
        self, two_sink_array, recwarn
    ):
        """Vectors not covering every sink build batched, without a
        warning, and the table equals the reference."""
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
        fast = FaultDictionary(fpva, suite, context=ExecutionContext(fpva))
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        ref = oracle.ReferenceDictionary(fpva, suite)
        assert list(fast._table.items()) == list(ref._table.items())


class TestPartialExpectations:
    """A vector whose expectations do not name exactly the sinks fails on
    every chip, the fault-free one included.  Every batched path judges it
    as the reference does, with no fallback engine."""

    @staticmethod
    def _partial(fpva, form):
        from repro.core.vectors import TestVector, VectorKind

        opened = frozenset(fpva.valves[:3])
        readings = oracle.ObjectSimulator(fpva).meter_readings(opened)
        expected = {
            "empty": {},
            "one-sink": dict(list(readings.items())[:1]),
            "unknown-name": {**readings, "not-a-sink": False},
        }[form]
        return TestVector("partial", VectorKind.BASELINE, opened, expected)

    @pytest.mark.parametrize("form", ["empty", "one-sink", "unknown-name"])
    def test_every_batched_path_matches_the_oracle(
        self, two_sink_array, tmp_path, recwarn, form
    ):
        from repro.core.repair import find_masked_stuck_pairs
        from repro.sim import fault_universe
        from repro.store import ArtifactStore

        fpva = two_sink_array
        vectors = _random_vectors(fpva, random.Random(2), count=6)
        suite = vectors + [self._partial(fpva, form)]
        kwargs = dict(universe=fault_universe(fpva)[:16], max_cardinality=2)

        cold = FaultDictionary(fpva, suite, **kwargs)
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]
        ref = oracle.ReferenceDictionary(fpva, suite, **kwargs)
        assert list(cold._table.items()) == list(ref._table.items())

        store = ArtifactStore(tmp_path / "store")
        FaultDictionary(fpva, vectors, store=store, **kwargs)
        appended = FaultDictionary(fpva, suite, store=store, **kwargs)
        assert appended.build_stats["mode"] == "delta"
        assert list(appended._table.items()) == list(cold._table.items())

        # One shard per fault count: each shard draws the oracle's stream.
        sweep = dict(fault_counts=(1, 2), trials=30, seed=5, shard_trials=30)
        expected = {
            k: oracle.run_trials(fpva, suite, k, 30, seed=mix_seed(5, k, 0))
            for k in (1, 2)
        }
        assert run_sweep(fpva, suite, **sweep) == expected
        journaled = run_sweep(fpva, suite, journal_dir=tmp_path / "j", **sweep)
        assert journaled == expected

        assert find_masked_stuck_pairs(fpva, suite) == (
            oracle.find_masked_stuck_pairs(fpva, suite)
        )
        healthy = ChipUnderTest(fpva)
        assert ExecutionContext(fpva).tester.run(healthy, suite).fault_detected
        assert oracle.object_tester(fpva).run(healthy, suite).fault_detected


class TestDiagnosisEquivalence:
    @pytest.mark.parametrize("scenario_name", scenario_names())
    def test_adaptive_and_full_suite_verdicts(self, small, scenario_name):
        """Kernel-backed dictionary + adaptive engine reproduce the
        reference full-suite reports for chips of every scenario."""
        scenario = get_scenario(scenario_name)
        vectors = generate_suite(small).all_vectors()
        universe = scenario.universe(small)
        fast = FaultDictionary(small, vectors, universe=universe)
        ref = oracle.ReferenceDictionary(small, vectors, universe=universe)
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
            # One shard per fault count: it draws the oracle's stream.
            fast = run_sweep(
                small, vectors, fault_counts=(k,), trials=40, shard_trials=40,
                seed=13 + k, scenario=scenario, context=ExecutionContext(small),
            )[k]
            ref = oracle.run_trials(
                small, vectors, k, 40, seed=mix_seed(13 + k, k, 0),
                scenario=scenario,
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
    """Satellite: randomized kernel/oracle equivalence property."""

    @settings(
        max_examples=8,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(kernel_layouts(), st.integers(0, 2**16))
    def test_readings_dictionary_and_verdicts_match(self, fpva, seed):
        rng = random.Random(seed)
        vectors = generate_suite(fpva).all_vectors()
        tester = Tester(fpva)
        reference = oracle.object_tester(fpva)
        scenario = get_scenario("mixed")
        universe = scenario.universe(fpva)

        # Faulty chips read as they do on the object engine.
        for _ in range(10):
            faults = scenario.sample(universe, rng, rng.choice((1, 2)))
            chip = ChipUnderTest(fpva, faults)
            for vector in vectors:
                assert tester.apply(chip, vector) == reference.apply(chip, vector)

        # Dictionary tables and adaptive verdicts match the reference build.
        sub = rng.sample(universe, min(16, len(universe)))
        fast = FaultDictionary(fpva, vectors, universe=sub, max_cardinality=2)
        ref = oracle.ReferenceDictionary(
            fpva, vectors, universe=sub, max_cardinality=2
        )
        assert list(fast._table.items()) == list(ref._table.items())
        engine = AdaptiveDiagnoser(fast)
        for faults in ([], [sub[0]]):
            chip = ChipUnderTest(fpva, faults)
            session = engine.diagnose(chip)
            full = ref.diagnose_chip(chip)
            assert session.report.syndrome == full.syndrome
            assert session.report.candidates == full.candidates
