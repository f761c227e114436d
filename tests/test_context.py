"""ExecutionContext: one compiled-kernel session through every layer.

Covers the PR-5 tentpole and satellites:

* exactly **one** kernel compile per context across generation, coverage,
  hardening, campaigns and dictionary diagnosis;
* the unified observability signatures: one ``(kernel, vector)``
  order for both checks;
* batched-vs-reference equivalence properties: kernel-session coverage
  observability sets and hardening output are identical to the
  object-BFS reference in ``tests/oracle.py`` across random layouts,
  vectors and seeds, and so are the helpers both share when handed the
  kernel or the object-graph simulator;
* context plumbing (store warm starts).
"""

from __future__ import annotations

import inspect
import random

import pytest

import oracle
from repro.context import ExecutionContext
from repro.core import (
    TestGenerator,
    measure_coverage,
    sa0_observable_valves,
    sa1_observable_valves,
)
from repro.core.coverage import _sa1_candidates
from repro.core.repair import (
    find_masked_stuck_pairs,
    harden_double_faults,
    synthesize_pair_breaker,
)
from repro.core.vectors import TestSet, TestVector, VectorKind
from repro.engine import run_sweep
from repro.fpva import FPVABuilder, Side, full_layout, table1_layout
from repro.fpva.geometry import Cell
from repro.sim import (
    ChipUnderTest,
    FaultDictionary,
    ReachabilityKernel,
    StuckAt0,
    StuckAt1,
)
from repro.sim.seeding import mix_seed
from repro.engine import AdaptiveDiagnoser


def _random_vectors(fpva, seed: int, count: int) -> list[TestVector]:
    """Synthetic vectors with object-engine ground-truth expectations."""
    rng = random.Random(seed)
    sim = oracle.ObjectSimulator(fpva)
    valves = sorted(fpva.valves)
    out = []
    for i in range(count):
        k = rng.randrange(1, len(valves) + 1)
        open_set = frozenset(rng.sample(valves, k))
        out.append(
            TestVector(
                name=f"rand{i}",
                kind=VectorKind.FLOW_PATH,
                open_valves=open_set,
                expected=sim.meter_readings(open_set),
            )
        )
    return out


def _copy_testset(ts: TestSet) -> TestSet:
    return TestSet(
        fpva=ts.fpva,
        flow_paths=list(ts.flow_paths),
        cut_sets=list(ts.cut_sets),
        leakage=list(ts.leakage),
    )


class TestExecutionContext:
    def test_resolve_checks_array_identity(self, small, tiny):
        ctx = ExecutionContext(small)
        assert ExecutionContext.resolve(ctx, small) is ctx
        with pytest.raises(ValueError, match="created for array"):
            ExecutionContext.resolve(ctx, tiny)
        with pytest.raises(TypeError):
            ExecutionContext.resolve("not-a-context", small)

    def test_foreign_kernel_rejected(self, small, tiny):
        kernel = ReachabilityKernel(tiny)
        with pytest.raises(ValueError, match="different array"):
            ExecutionContext(small, kernel=kernel)

    def test_shared_lazy_machinery(self, small):
        ctx = ExecutionContext(small)
        assert ctx.kernel_compiles == 0  # nothing compiled yet
        assert ctx.tester.kernel is ctx.kernel
        assert ctx.kernel_compiles == 1

    def test_store_warm_start_bit_identical(self, small, tmp_path):
        cold = ExecutionContext(small, store=tmp_path)
        vectors = _random_vectors(small, seed=5, count=6)
        cold_readings = [
            cold.kernel.meter_readings(v.open_valves) for v in vectors
        ]
        assert cold.kernel_compiles == 1 and cold.kernel_loads == 0

        warm = ExecutionContext(small, store=tmp_path)
        warm_readings = [
            warm.kernel.meter_readings(v.open_valves) for v in vectors
        ]
        assert warm.kernel_compiles == 0 and warm.kernel_loads == 1
        assert warm_readings == cold_readings


class TestOneCompilePerContext:
    def test_full_pipeline_compiles_exactly_once(self, monkeypatch):
        """Generation + hardening + coverage + campaigns + dictionary +
        adaptive diagnosis through one session: one kernel compile total."""
        fpva = full_layout(4, 4, name="one-compile-4x4")
        compiles: list = []
        original = ReachabilityKernel.__init__

        def counting(self, array):
            compiles.append(array)
            original(self, array)

        monkeypatch.setattr(ReachabilityKernel, "__init__", counting)

        ctx = ExecutionContext(fpva)
        suite = TestGenerator(
            fpva, harden_double_faults=True, context=ctx
        ).generate().testset
        vectors = suite.all_vectors()
        measure_coverage(fpva, vectors, context=ctx)
        run_sweep(
            fpva, vectors, fault_counts=(2,), trials=20, workers=1, context=ctx
        )
        dictionary = FaultDictionary(fpva, vectors, context=ctx)
        engine = AdaptiveDiagnoser(dictionary, context=ctx)
        engine.diagnose(ChipUnderTest(fpva, ()))
        assert len(compiles) == 1
        assert ctx.kernel_compiles == 1


class TestUnifiedObservabilitySignatures:
    @pytest.fixture(scope="class")
    def setup(self, table5):
        ctx = ExecutionContext(table5)
        vector = TestGenerator(
            table5, include_leakage=False, context=ctx
        ).generate().testset.flow_paths[0]
        return table5, ctx, vector

    def test_both_signatures_are_identical(self, setup):
        _, ctx, vector = setup
        # One calling convention for both checks: the session's kernel,
        # then the vector.
        for func in (sa0_observable_valves, sa1_observable_valves):
            assert list(inspect.signature(func).parameters) == ["kernel", "vector"]
        # A flow-path vector observes each of its own valves.
        assert sa0_observable_valves(ctx.kernel, vector) == vector.open_valves

    def test_missing_vector_rejected(self, setup):
        _, ctx, _ = setup
        with pytest.raises(TypeError, match="vector"):
            sa0_observable_valves(ctx.kernel)

    def test_missing_simulator_rejected(self, setup):
        fpva, _, vector = setup
        with pytest.raises(TypeError, match="kernel"):
            sa0_observable_valves(vector=vector)


def _layouts():
    return [
        full_layout(4, 4, name="prop-4x4"),
        table1_layout(5),
        (
            FPVABuilder(5, 5, name="prop-obstacle")
            .obstacle(3, 3)
            .channel(Cell(5, 2), "east", 2)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 5)
            .build()
        ),
        (
            FPVABuilder(4, 5, name="prop-two-sink")
            .source(Side.WEST, 1)
            .sink(Side.EAST, 2, name="o1")
            .sink(Side.SOUTH, 5, name="o2")
            .build()
        ),
    ]


class TestBatchedEquivalenceProperties:
    """Satellite: batched results == object-BFS reference, property-style."""

    @pytest.mark.parametrize("layout_index", range(4))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_observability_sets_identical(self, layout_index, seed):
        fpva = _layouts()[layout_index]
        kernel = ExecutionContext(fpva).kernel
        object_sim = oracle.ObjectSimulator(fpva)
        for vector in _random_vectors(fpva, seed=seed, count=8):
            assert sa0_observable_valves(kernel, vector) == (
                oracle.sa0_observable_valves(object_sim, vector)
            ), vector
            assert sa1_observable_valves(kernel, vector) == (
                oracle.sa1_observable_valves(object_sim, vector)
            ), vector
            # The candidate scan both sides share, on either engine.
            assert _sa1_candidates(kernel, vector) == (
                _sa1_candidates(object_sim, vector)
            ), vector

    @pytest.mark.parametrize("layout_index", range(4))
    def test_pair_breaker_identical_on_either_engine(self, layout_index):
        """synthesize_pair_breaker emits the same vector whether the
        kernel or the object-graph simulator gives its readings."""
        fpva = _layouts()[layout_index]
        ctx = ExecutionContext(fpva)
        object_sim = oracle.ObjectSimulator(fpva)
        rng = random.Random(layout_index)
        valves = sorted(fpva.valves)
        breakers = []
        for i in range(12):
            e0, e1 = rng.sample(valves, 2)
            pair = (StuckAt0(e0), StuckAt1(e1))
            on_kernel = synthesize_pair_breaker(
                fpva, *pair, ctx.kernel, ctx.tester, name=f"b{i}"
            )
            on_objects = synthesize_pair_breaker(
                fpva, *pair, object_sim, ctx.tester, name=f"b{i}"
            )
            assert on_kernel == on_objects, pair
            breakers.append(on_kernel)
        assert any(breakers)

    @pytest.mark.parametrize("layout_index", range(4))
    def test_suite_coverage_identical(self, layout_index):
        fpva = _layouts()[layout_index]
        vectors = _random_vectors(fpva, seed=7, count=6)
        batched = measure_coverage(
            fpva, vectors, context=ExecutionContext(fpva)
        )
        reference = oracle.measure_coverage(fpva, vectors)
        assert batched.sa0_covered == reference.sa0_covered
        assert batched.sa1_covered == reference.sa1_covered
        assert batched.leak_pairs_covered == reference.leak_pairs_covered

    @pytest.mark.parametrize("drop_cuts", [0, 1, 2])
    def test_hardening_identical_and_bit_identical_vectors(self, drop_cuts):
        """Batched and serial hardening agree on the audit *and* emit
        bit-identical breaker vectors, including on suites weakened to
        force masked pairs."""
        fpva = (
            FPVABuilder(5, 4, name="prop-masking")
            .obstacle(3, 2)
            .source(Side.WEST, 1)
            .sink(Side.EAST, 5)
            .build()
        )
        suite = TestGenerator(
            fpva, path_strategy="greedy", cut_strategy="sweep",
            include_leakage=False,
        ).generate().testset
        if drop_cuts:
            suite.cut_sets = suite.cut_sets[:-drop_cuts]

        serial_ts = _copy_testset(suite)
        batched_ts = _copy_testset(suite)
        serial = oracle.harden_double_faults(fpva, serial_ts)
        batched = harden_double_faults(
            fpva, batched_ts, context=ExecutionContext(fpva)
        )
        assert batched.pairs_audited == serial.pairs_audited
        assert batched.pairs_missed == serial.pairs_missed
        assert batched.vectors_added == serial.vectors_added
        assert batched.pairs_unrepaired == serial.pairs_unrepaired
        assert batched_ts.flow_paths == serial_ts.flow_paths
        assert batched_ts.cut_sets == serial_ts.cut_sets

    def test_audit_fallback_on_partial_expectations(self, small):
        """Vectors whose expectations do not cover every sink fail on
        every chip; the batched audit agrees with the serial reference."""
        sim = oracle.ObjectSimulator(small)
        opens = frozenset(list(small.valves)[:6])
        readings = sim.meter_readings(opens)
        partial = TestVector(
            "partial",
            VectorKind.FLOW_PATH,
            opens,
            dict(list(readings.items())[:0]),  # no expectations at all
        )
        kernel_audit = find_masked_stuck_pairs(
            small, [partial], context=ExecutionContext(small)
        )
        object_audit = oracle.find_masked_stuck_pairs(small, [partial])
        assert kernel_audit == object_audit


class TestLegacyKeywordShims:
    """Kernel sessions match the object-engine reference."""

    def test_campaign_context_matches_legacy_kwargs(self, small):
        suite = TestGenerator(small, include_leakage=False).generate().testset
        vectors = suite.all_vectors()
        via_context = run_sweep(
            small, vectors, fault_counts=(2,), trials=40, shard_trials=40,
            seed=3, context=ExecutionContext(small),
        )[2]
        via_object = oracle.run_trials(
            small, vectors, num_faults=2, trials=40, seed=mix_seed(3, 2, 0)
        )
        assert via_context == via_object

    def test_dictionary_context_matches_legacy(self, small, tmp_path):
        suite = TestGenerator(small, include_leakage=False).generate().testset
        ctx = ExecutionContext(small, store=tmp_path)
        with_context = FaultDictionary(
            small, suite.all_vectors(), context=ctx
        )
        legacy = oracle.ReferenceDictionary(small, suite.all_vectors())
        assert list(with_context._table.items()) == list(legacy._table.items())
        # The context's store addressed the build: a rebuild warm-loads.
        warm = FaultDictionary(small, suite.all_vectors(), context=ctx)
        assert warm.build_stats["mode"] == "warm"
